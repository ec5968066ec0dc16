"""Exhaustive search for standard and cyclic subsets realizing a string.

Given a target string (a_1, ..., a_n) and a kind, the engine decides by
complete backtracking whether n vectors v_1, ..., v_n in (Z^n, -Id)
exist with the prescribed Gram matrix: diagonal -a_i, +1 on consecutive
pairs, and wraparound -1 (negative cyclic), +1 (positive cyclic), or
absent (standard).  Fixing the off-diagonal signs this way loses
nothing: negating vertices moves intersection signs freely around a
path, and around a cycle preserves only the parity of minus signs.

Symmetry reduction quotients by the full automorphism group of the
lattice (signed permutations of coordinates): basis columns are brought
into first-touch order along the assignment, the first use of each new
column is positive, and the new columns a single vector introduces
carry non-increasing coefficients.  Any solution can be put in this
form by an automorphism, so Exhausted answers are complete.  Within a
vector, the used columns fall into classes of columns with equal entries
on every placed vector; since each column's first use is positive, the
permutations inside the classes make up the whole stabilizer of the
placed vectors, and only coefficients non-decreasing along each class
are tried.  This keeps the first solution of the unreduced order: had it
a larger coefficient before a smaller one in some class, swapping the
two columns would give a canonical solution the search meets earlier.

Vectors with square -a have all coordinates bounded by isqrt(a); the
candidate generator prunes on exact pairwise products with everything
already assigned (new columns never meet older vectors, so partial
products must land exactly).

find_embedding first applies three certificates, each of which answers
without a search node.  n vectors realizing the Gram matrix Q
make Q = -A A^T with A the square integer matrix of their coordinates,
so |det Q| = det(A)^2 is a perfect square; gram_order() reads |det Q|
off values computed in O(n).  When it is a square, the lattice
L = (Z^n, P) with P = -Q sits in Z^n with index |det A|, so
Z^n / L is a metabolizer of the discriminant form b(x, y) = x^T P^-1 y
on G = Z^n / P Z^n: a subgroup of order sqrt|G| on which b vanishes
(Casson-Gordon; Lisca 2007).  For the cyclic kinds G has two generators,
discriminant_form() gives its relation matrix and form in O(n), and
metabolizer_count() counts metabolizers prime by prime; a count of 0
proves Exhausted.  A standard string has cyclic G, which always has one.
Conversely, a metabolizer glues L into a unimodular overlattice of
rank n, and for n <= 7 every positive definite one is Z^n (Conway and
Sloane, SPLAG ch. 16), so a positive count at n <= 7 proves Found; rank
8 admits E8, and there the engine decides.

_search decides for find_embedding and for StringProfile, the one
per-string pipeline of the sweep rows and the classifier; a Found from
the rank rule carries no witness.  embedding_witness() is
find_embedding's answer with a witness on every Found, built by the
engine where the rank rule answered; the CLI prints it.

The sweep driver verify_classification() runs both cyclic searches for
every canonical string with an entry >= 3 and I <= 0 up to a given
length and compares against family membership: negative embeddings
must occur exactly on S1 members plus the one exceptional string, and
positive embeddings exactly on S2 members.  The strings in
THEOREM_GAP_STRINGS break this rule and are reported as mismatches;
the acceptance criterion expects exactly those of them within the
sweep's length, and no other row, to disagree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from math import gcd, isqrt

from .chainstring import canonical_form, validate_chain
from .contfrac import _continuants, cyclic_orders, hj_eval, is_square
from .families import EXCEPTIONAL_TAG, S1_TAGS, S2_TAGS, _tag_sets, enumerate_strings
from .lattice import NEGATIVE, POSITIVE, STANDARD, LatticeSubset, classify_subset

FOUND = "found"
EXHAUSTED = "exhausted"

# what decided a search, in the order _search tries them: a non-square
# Gram determinant, then a discriminant form without a metabolizer (both
# prove Exhausted with zero nodes), then a metabolizer at cyclic rank
# n <= 7 (proves Found with zero nodes and no witness), then the
# backtracking engine
DET_NONSQUARE = "det-nonsquare"
NO_METABOLIZER = "no-metabolizer"
UNIMODULAR_RANK = "unimodular-rank"
SEARCH = "search"

# every positive definite unimodular lattice of rank <= 7 is Z^n; rank 8
# admits E8
_UNIMODULAR_RANK_LIMIT = 7

# Strings for which the exhaustive search, run to completion, exhibits a
# negative cyclic subset although the string lies in no family and is
# not the listed exceptional string.  They are counterexamples to the
# classification this sweep was built to confirm (all are self-dual
# concatenation powers with I = 0; test_theorem_gap_string_witness
# rebuilds each witness Gram matrix coefficient by coefficient).  Every
# clean row agrees with the classification; these rows are reported as
# mismatches.
THEOREM_GAP_STRINGS = frozenset(
    {
        canonical_form((3, 3, 3, 3, 3, 3)),
        canonical_form((2, 4, 2, 4, 2, 4, 2, 4)),
    }
)


@dataclass(slots=True)
class SearchResult:
    outcome: str
    witness: LatticeSubset | None
    nodes: int
    elapsed: float
    certificate: str = SEARCH

    @property
    def found(self) -> bool:
        return self.outcome == FOUND

    def to_json(self) -> dict:
        out = {
            "outcome": self.outcome,
            "certificate": self.certificate,
            "nodes": self.nodes,
            "ms": round(self.elapsed * 1000, 3),
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


@lru_cache(maxsize=None)
def _square_partitions(mass: int) -> tuple[tuple[int, ...], ...]:
    """Non-increasing tuples of positive ints whose squares sum to mass."""
    if mass == 0:
        return ((),)
    out = []

    def rec(left, cap, prefix):
        if left == 0:
            out.append(tuple(prefix))
            return
        for k in range(min(cap, isqrt(left)), 0, -1):
            rec(left - k * k, k, prefix + [k])

    rec(mass, isqrt(mass), [])
    return tuple(out)


def _target_gram(a, kind: str):
    """Prescribed products G[i][j] for i < j, as a dict."""
    n = len(a)
    targets = {}
    if kind == STANDARD:
        for i in range(n - 1):
            targets[(i, i + 1)] = 1
        return targets
    if n == 2:
        targets[(0, 1)] = 0 if kind == NEGATIVE else 2
        return targets
    for i in range(n - 1):
        targets[(i, i + 1)] = 1
    targets[(0, n - 1)] = -1 if kind == NEGATIVE else 1
    return targets


def gram_order(a, kind: str) -> int:
    """|det Q| for the Gram matrix Q a subset of this kind must realize:
    the continued-fraction numerator of a standard string, and for the
    cyclic kinds tr(M_a) + 2 (negative) or tr(M_a) - 2 (positive), the
    homology orders of the odd and the even surgeries on a."""
    if kind == STANDARD:
        return hj_eval(a).p
    odd, even = cyclic_orders(a)
    return odd if kind == NEGATIVE else even


def discriminant_form(a, kind: str):
    """The discriminant group G = Z^n / P Z^n of P = -Q for a cyclic kind,
    on two generators: (R, (b11, b12, b22)).

    G is Z^2 modulo the rows of the 2x2 relation matrix R, and b_ij / |det R|
    mod 1 are the values of b(x, y) = x^T P^-1 y on the generators, up to
    one sign common to all three.  For n >= 3 the generators are e_1 and
    e_n: rows 1, ..., n-2 of P express e_2, ..., e_{n-1} through them with
    continuant coefficients N(a_i..a_j) (the numerators of hj_eval), the
    last two rows are R, and P^-1 on the generators is read off cofactors.
    The five continuants come from two _continuants passes: the one on
    a_1..a_{n-1} gives N(a_1..a_{n-1}), N(a_2..a_{n-1}), N(a_1..a_{n-2})
    and N(a_2..a_{n-2}), the one on a gives N(a_2..a_n).  For n = 2,
    R = P.  G must be finite, which the positive kind of an all-2 string
    (|det Q| = 0) is not.
    """
    return _discriminant_form(a, kind, 0 if kind == STANDARD else gram_order(a, kind))


def _discriminant_form(a, kind, order):
    """discriminant_form of a, given |det Q| = gram_order(a, kind)."""
    if not order:
        raise ValueError(f"no finite cyclic discriminant group of kind {kind!r} for {tuple(a)}")
    targets = _target_gram(a, kind)
    n = len(a)
    if n == 2:
        t = targets[(0, 1)]
        return ((a[0], -t), (-t, a[1])), (a[1], t, a[0])
    w = -targets[(0, n - 1)]  # the wraparound entry of P
    # N(a_1..a_{n-1}), N(a_2..a_{n-1}), N(a_1..a_{n-2}), N(a_2..a_{n-2})
    p, q, s, r = _continuants(a[: n - 1])
    R = ((p, w * q - 1), (w - s, a[n - 1] - w * r))
    if abs(R[0][0] * R[1][1] - R[0][1] * R[1][0]) != order:
        raise AssertionError(f"relation matrix of {tuple(a)} {kind} lost the determinant")
    return R, (_continuants(a)[1], 1 - w * q, p)


# Bounds of the metabolizer count: past them it answers None and the
# search goes to the engine.  The Miller-Rabin bases below decide
# primality for every n < _MR_LIMIT (Sorenson and Webster, 2015).
_TRIAL_DIVISORS = 1000
_RHO_STEPS = 3 << 16  # map evaluations per rho run, over all constants c
_RHO_BATCH = 128
_SUBGROUP_CANDIDATES = 1 << 16
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def _passes_miller_rabin(n: int) -> bool:
    """n > 37 odd passes the strong test to every base of _MR_BASES."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int | None:
    """A proper factor of the odd composite n by Pollard's rho with
    Brent's cycle, or None after _RHO_STEPS map evaluations.

    The distances x - y are multiplied together _RHO_BATCH at a time and
    tested with one gcd; a batch whose product shares all of n is walked
    again one gcd per step from its start.
    """
    evals = 0
    for c in range(1, 1 << 10):
        y, q, f, r = 2, 1, 1, 1
        while f == 1:
            # x is saved and compared with the r points after the next r
            if evals + r >= _RHO_STEPS:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            evals += r
            k = 0
            while k < r and f == 1:
                if evals == _RHO_STEPS:
                    return None
                start, steps = y, min(_RHO_BATCH, r - k, _RHO_STEPS - evals)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                evals += steps
                f = gcd(q, n)
                k += steps
            r *= 2
        if f == n:
            f = 1
            y = start
            while f == 1:
                y = (y * y + c) % n
                f = gcd(x - y, n)
        if f != n:
            return f
    return None


def _prime_factors(n: int):
    """Yield each prime dividing n >= 1 once, as it is found (trial
    divisors first, then the smaller part of each split), and None for
    each factor that can neither be split within _RHO_STEPS map
    evaluations nor certified prime."""
    for p in range(2, _TRIAL_DIVISORS):
        if p * p > n:
            break
        if n % p == 0:
            yield p
            while n % p == 0:
                n //= p
    # every prime factor left is >= _TRIAL_DIVISORS, or n is prime
    stack = [n] if n > 1 else []
    found = set()
    while stack:
        m = stack.pop()
        if m in found:
            continue
        if m < _TRIAL_DIVISORS**2 or _passes_miller_rabin(m):
            if m >= _MR_LIMIT:
                yield None
            else:
                found.add(m)
                yield m
            continue
        f = _rho_factor(m)
        if f is None:
            yield None
        else:
            stack += sorted((f, m // f), reverse=True)  # the smaller part first


def _smith_basis(R):
    """(d1, d2, W) with d1 | d2 and G = Z^2 / rows(R) = Z/d1 f_1 + Z/d2 f_2,
    where f_i is the class of the row W[i] (R nonsingular)."""
    M = [list(R[0]), list(R[1])]
    W = [[1, 0], [0, 1]]
    while True:
        if M[0][1]:
            # a column operation E with (M00, M01) E = (g, 0); W <- E^-1 W
            g, x, y = _ext_gcd(M[0][0], M[0][1])
            u, v = M[0][0] // g, M[0][1] // g
            M = [[x * r[0] + y * r[1], u * r[1] - v * r[0]] for r in M]
            W = [[u * W[0][j] + v * W[1][j] for j in (0, 1)], [x * W[1][j] - y * W[0][j] for j in (0, 1)]]
        elif M[1][0]:
            # the row operation clearing M10; rows(R) keeps its span
            g, x, y = _ext_gcd(M[0][0], M[1][0])
            u, v = M[0][0] // g, M[1][0] // g
            M = [[x * M[0][j] + y * M[1][j] for j in (0, 1)], [u * M[1][j] - v * M[0][j] for j in (0, 1)]]
        elif M[1][1] % M[0][0]:
            M[0][1] = M[1][1]  # add row 1 to row 0, then diagonalize again
        else:
            return abs(M[0][0]), abs(M[1][1]), W


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x a + y b = g = gcd(a, b) > 0, for (a, b) != (0, 0),
    and y = 0 when a divides b (so a clearing step leaves zeros alone)."""
    if a and b % a == 0:
        return abs(a), 1 if a > 0 else -1, 0
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


def metabolizer_count(R, form) -> int | None:
    """The number of metabolizers of the discriminant form (R, form) of
    discriminant_form: subgroups H with |H|^2 = |G| on which b vanishes.
    None when a bound stops the count before some p-part shows none.

    G and b split orthogonally into p-parts, so the count is a product
    over primes, and the first p-part without a metabolizer makes it 0
    (the rest of d1 is then not factored).  A cyclic p-part of square
    order p^2e has exactly one, its subgroup of order p^e, so only the
    primes of d1 are examined.  For odd p and
    G_p = (Z/p)^2 the metabolizers are the isotropic lines of a
    nondegenerate binary form over F_p: two if -det is a square mod p,
    none otherwise.  Else the subgroups of order p^k in Z/p^e1 + Z/p^e2
    (2k = e1 + e2) are enumerated as the lattices K of index p^k in Z^2
    that contain p^e1 Z + p^e2 Z: K has the Hermite basis (p^s, y),
    (0, p^t) with s + t = k, 0 <= y < p^t and p^t | y p^(e1 - s).
    A singular R (an infinite G) is refused with ValueError.
    """
    if R[0][0] * R[1][1] == R[0][1] * R[1][0]:
        raise ValueError(f"relation matrix {R} is singular: the discriminant group is infinite")
    d1, d2, W = _smith_basis(R)
    D = d1 * d2
    b11, b12, b22 = form

    def b(x, y):  # the form on two generator-coordinate rows, over D
        return x[0] * (b11 * y[0] + b12 * y[1]) + x[1] * (b12 * y[0] + b22 * y[1])

    count, complete = 1, True
    for p in _prime_factors(d1):
        if p is None:
            complete = False
            continue
        e = []
        for d in (d1, d2):
            v = 0
            while d % p == 0:
                d, v = d // p, v + 1
            e.append(v)
        e1, e2 = e
        # u_i = (d_i / p^e_i) f_i generate the p-part; the form on them
        # has denominator p^(e1 + e2) once the prime-to-p part of D leaves
        c = (d1 // p**e1, d2 // p**e2)
        rest, mod = D // p ** (e1 + e2), p ** (e1 + e2)
        N = [c[i] * c[j] * b(W[i], W[j]) for i, j in ((0, 0), (0, 1), (1, 1))]
        if any(x % rest for x in N):
            raise AssertionError("discriminant form values are not p-primary on the p-part")
        n11, n12, n22 = (x // rest % mod for x in N)
        if p > 2 and e1 == e2 == 1:
            if n11 % p or n12 % p or n22 % p:
                raise AssertionError("discriminant form values on (Z/p)^2 are not in (1/p)Z")
            det = (n11 * n22 - n12 * n12) // (p * p) % p
            if not det:
                raise AssertionError("discriminant form is degenerate on its p-part")
            found = 2 if pow(-det % p, (p - 1) // 2, p) == 1 else 0
        elif (p ** (e1 + 1) - 1) // (p - 1) > _SUBGROUP_CANDIDATES:
            complete = False
            continue
        else:
            # with k - s = t and k >= e1, the divisibility reads
            # p^(k - e1) | y, which leaves p^(e1 - s) lattices for each s
            k = (e1 + e2) // 2
            step = p ** (k - e1)
            found = 0
            for s in range(e1 + 1):
                ps, pt = p**s, p ** (k - s)
                if pt * pt * n22 % mod:
                    continue
                for y in range(0, pt, step):
                    if (ps * ps * n11 + 2 * ps * y * n12 + y * y * n22) % mod == 0 and (
                        ps * pt * n12 + y * pt * n22
                    ) % mod == 0:
                        found += 1
        if not found:
            return 0
        count *= found
    return count if complete else None


def _search(a, kind, order) -> SearchResult:
    """The engine behind three certificates that answer without a node:
    a non-square |det Q| and, for the cyclic kinds, a discriminant form
    with no metabolizer prove Exhausted; a metabolizer at n <= 7 proves
    Found.  Ahead of all three, a positive cyclic subset needs an entry
    >= 3 by definition.  a is a valid string, of length >= 2 for the
    standard kind, and order is gram_order(a, kind); nothing is checked
    again.  At n = 1, G is cyclic of square order, so it has one metabolizer.

    The third rule: P = -Q has diagonal a_i >= 2 and off-diagonal
    entries of total size at most 2 in each row, so it is positive
    semidefinite by weak diagonal dominance, and definite once det P != 0.
    A metabolizer H of b on G = L#/L, L = (Z^n, P), has for preimage in
    L# a lattice M = L + H on which b is integral, of determinant
    det P / |H|^2 = 1: an integral unimodular positive definite lattice
    of rank n <= 7, hence M = Z^n with the standard form.  The basis of
    L read in M realizes P, that is Q in (Z^n, -Id).  A count of None
    proves nothing and goes to the engine, as does every n >= 8.
    """
    t0 = time.perf_counter()
    if kind == POSITIVE and max(a) < 3:
        return SearchResult(EXHAUSTED, None, 0, time.perf_counter() - t0)
    if not is_square(order):
        return SearchResult(EXHAUSTED, None, 0, time.perf_counter() - t0, DET_NONSQUARE)
    if kind != STANDARD:
        count = 1 if len(a) == 1 else metabolizer_count(*_discriminant_form(a, kind, order))
        if count == 0:
            return SearchResult(EXHAUSTED, None, 0, time.perf_counter() - t0, NO_METABOLIZER)
        if count is not None and len(a) <= _UNIMODULAR_RANK_LIMIT:
            return SearchResult(FOUND, None, 0, time.perf_counter() - t0, UNIMODULAR_RANK)
    return _Engine(a, kind).run()


class _Engine:
    def __init__(self, a, kind):
        self.a = a
        self.n = len(a)
        self.kind = kind
        self.nodes = 0
        self.witness = None
        self.targets = _target_gram(a, kind)
        # walk the cycle starting at the largest entry: each new vertex is
        # pinned to its placed neighbor, so the Gram constraints chain
        # (placing by descending square instead leaves early vertices
        # mutually unconstrained and is orders of magnitude slower on
        # exhaustion proofs)
        start = max(range(self.n), key=lambda i: (a[i], -i))
        self.order = [(start + k) % self.n for k in range(self.n)]
        if kind == STANDARD:
            self.order = list(range(self.n))

    def _pair_target(self, i, j):
        key = (i, j) if i < j else (j, i)
        return self.targets.get(key, 0)

    def _candidates(self, pos, placed, used):
        """All canonical vectors for position pos against the placed ones.

        placed: list of (position, vector) pairs; used: columns touched
        so far.  Yields (vector, new_used).
        """
        n, a = self.n, self.a[pos]
        want = [self._pair_target(pos, q) for q, _ in placed]
        vecs = [v for _, v in placed]
        suffix = []  # suffix[q][j] = mass of vecs[q] on columns >= j (< used)
        for v in vecs:
            acc = [0] * (used + 1)
            for j in range(used - 1, -1, -1):
                acc[j] = acc[j + 1] + v[j] * v[j]
            suffix.append(acc)
        # prev[j]: the last column before j with the same entries on every
        # placed vector (-1 if none); swapping the two fixes all of them,
        # so only coefficients non-decreasing along a class are tried
        prev, last = [], {}
        for j, column in enumerate(islice(zip(*vecs), used)):
            prev.append(last.get(column, -1))
            last[column] = j

        coeffs = [0] * used

        def rec(j, mass_left, partials):
            if j == used:
                for q in range(len(vecs)):
                    if partials[q] != want[q]:
                        return
                free = n - used
                for parts in _square_partitions(mass_left):
                    if len(parts) > free:
                        continue
                    v = coeffs + list(parts) + [0] * (free - len(parts))
                    yield tuple(v), used + len(parts)
                return
            bound = isqrt(mass_left)
            low = -bound if prev[j] < 0 else max(-bound, coeffs[prev[j]])
            for c in range(low, bound + 1):
                ok = True
                left = mass_left - c * c
                for q in range(len(vecs)):
                    p = partials[q] - c * vecs[q][j]
                    d = want[q] - p
                    if d * d > left * suffix[q][j + 1]:
                        ok = False
                        break
                if not ok:
                    continue
                coeffs[j] = c
                new_partials = [partials[q] - c * vecs[q][j] for q in range(len(vecs))]
                yield from rec(j + 1, left, new_partials)
            coeffs[j] = 0

        yield from rec(0, a, [0] * len(vecs))

    def run(self):
        t0 = time.perf_counter()
        placed: list[tuple[int, tuple[int, ...]]] = []

        def extend(k, used):
            if k == self.n:
                self.witness = {pos: v for pos, v in placed}
                return True
            pos = self.order[k]
            for v, new_used in self._candidates(pos, placed, used):
                self.nodes += 1
                placed.append((pos, v))
                if extend(k + 1, new_used):
                    return True
                placed.pop()
            return False

        hit = extend(0, 0)
        elapsed = time.perf_counter() - t0
        if not hit:
            return SearchResult(EXHAUSTED, None, self.nodes, elapsed)
        vectors = tuple(self.witness[i] for i in range(self.n))
        witness = classify_subset(vectors)
        want_kind = self.kind
        expect = canonical_form(self.a) if want_kind != STANDARD else tuple(self.a)
        if witness.kind != want_kind or witness.string not in (expect, tuple(reversed(expect))):
            raise AssertionError(
                f"witness failed revalidation: {witness.kind} {witness.string} "
                f"for query {self.kind} {self.a}"
            )
        return SearchResult(FOUND, witness, self.nodes, elapsed)


def find_embedding(a, kind: str) -> SearchResult:
    """Decide whether a subset of the given kind realizes a: the cyclic
    string a for a cyclic kind, the linear string a for the standard one."""
    a = validate_chain(a)
    if len(a) < 2:
        raise ValueError("embedding queries need length >= 2")
    if kind not in (STANDARD, NEGATIVE, POSITIVE):
        raise ValueError(f"unknown search kind {kind!r}")
    return _search(a, kind, gram_order(a, kind))


def embedding_witness(a, kind: str) -> SearchResult:
    """find_embedding's answer with a witness on every Found: a Found the
    rank rule settled without one is searched again by the engine."""
    got = find_embedding(a, kind)
    if got.found and got.witness is None:
        return _Engine(validate_chain(a), kind).run()
    return got


class StringProfile:
    """What a sweep row and the classifier read about one valid canonical
    string, unvalidated: I(a), cyclic_orders(a), the tag sets of one
    membership scan and the two cyclic searches, each run on first ask
    by search(kind); dual is the cyclic dual's profile once linked."""

    __slots__ = ("string", "i_inv", "orders", "strict", "relaxed", "_neg", "_pos", "dual")

    def __init__(self, a):
        self.string = a
        self.i_inv = sum(a) - 3 * len(a)
        self.orders = cyclic_orders(a)
        self.strict, self.relaxed = _tag_sets(a, self.i_inv, self.orders)
        self._neg = self._pos = self.dual = None

    def search(self, kind: str) -> SearchResult:
        if kind == NEGATIVE:
            self._neg = self._neg or _search(self.string, kind, self.orders[0])
            return self._neg
        if kind == POSITIVE:
            self._pos = self._pos or _search(self.string, kind, self.orders[1])
            return self._pos
        raise ValueError(f"a string profile holds only the cyclic searches, not {kind!r}")


# ---------------------------------------------------------------------------
# the classification sweep


@dataclass(slots=True)
class Row:
    string: tuple[int, ...]
    i_inv: int
    s1_strict: bool
    s1_relaxed: bool
    s2_strict: bool
    s2_relaxed: bool
    exceptional: bool
    neg: str
    pos: str
    nodes: int
    ms: float

    def agree(self, mode: str) -> bool:
        s1 = self.s1_strict if mode == "strict" else self.s1_relaxed
        s2 = self.s2_strict if mode == "strict" else self.s2_relaxed
        return (self.neg == FOUND) == (s1 or self.exceptional) and (self.pos == FOUND) == s2

    def to_json(self, mode: str) -> dict:
        return {
            "string": ",".join(map(str, self.string)),
            "I": self.i_inv,
            "s1_strict": self.s1_strict,
            "s1_relaxed": self.s1_relaxed,
            "s2_strict": self.s2_strict,
            "s2_relaxed": self.s2_relaxed,
            "neg": self.neg,
            "pos": self.pos,
            "agree": self.agree(mode),
            "nodes": self.nodes,
            "ms": self.ms,
        }

    def to_json_line(self, mode: str) -> str:
        """json.dumps(self.to_json(mode)) and a newline, formatted directly:
        every value is an int, a bool, a finite float or a string of
        digits, commas, letters and underscores, none of which JSON
        escapes, and the encoder's per-call set-up is about a fifth of a
        typical sweep row's time."""
        b = ("false", "true")
        return (
            f'{{"string": "{",".join(map(str, self.string))}", "I": {self.i_inv}, '
            f'"s1_strict": {b[self.s1_strict]}, "s1_relaxed": {b[self.s1_relaxed]}, '
            f'"s2_strict": {b[self.s2_strict]}, "s2_relaxed": {b[self.s2_relaxed]}, '
            f'"neg": "{self.neg}", "pos": "{self.pos}", "agree": {b[self.agree(mode)]}, '
            f'"nodes": {self.nodes}, "ms": {self.ms!r}}}\n'
        )

    def to_csv(self, mode: str) -> str:
        """The to_json fields in order, with the string quoted."""
        cells = []
        for key, value in self.to_json(mode).items():
            if key == "string":
                cells.append(f'"{value}"')
            elif isinstance(value, bool):
                cells.append(str(value).lower())
            else:
                cells.append(str(value))
        return ",".join(cells)


def _row_for(a) -> Row:
    """The sweep row of a, read off its StringProfile.  a comes from
    sweep_strings, a valid canonical string of length >= 2."""
    p = StringProfile(a)
    neg, pos = p.search(NEGATIVE), p.search(POSITIVE)
    return Row(
        string=a,
        i_inv=p.i_inv,
        s1_strict=not p.strict.isdisjoint(S1_TAGS),
        s1_relaxed=not p.relaxed.isdisjoint(S1_TAGS),
        s2_strict=not p.strict.isdisjoint(S2_TAGS),
        s2_relaxed=not p.relaxed.isdisjoint(S2_TAGS),
        exceptional=EXCEPTIONAL_TAG in p.strict,
        neg=neg.outcome,
        pos=pos.outcome,
        nodes=neg.nodes + pos.nodes,
        ms=round((neg.elapsed + pos.elapsed) * 1000, 3),
    )


@dataclass
class VerificationReport:
    max_n: int
    mode: str
    rows: list[Row] = field(default_factory=list)

    def mismatches(self) -> list[Row]:
        return [r for r in self.rows if not r.agree(self.mode)]


def sweep_strings(max_n: int):
    """The verification universe: length 2..max_n, entries >= 2, some
    entry >= 3, I <= 0, canonical forms only."""
    for a in enumerate_strings(max_n, 0):
        if len(a) >= 2:
            yield a


def verify_classification(
    max_n: int,
    mode: str = "relaxed",
    workers: int = 1,
    skip_until=None,
    row_callback=None,
) -> VerificationReport:
    """Check embedding existence against family membership up to max_n.

    The work is split across rows, each searched single-threaded, so the
    report content is identical for every worker count.  Rows stream to
    row_callback as they are produced, in sweep order for any worker
    count.  skip_until must name a string of the sweep universe.
    """
    if max_n < 2:
        raise ValueError("max_n must be >= 2")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    strings = list(sweep_strings(max_n))
    if skip_until is not None:
        start = canonical_form(skip_until)
        if start not in strings:
            raise ValueError(f"skip-until string {tuple(skip_until)} is not in the max_n={max_n} sweep")
        strings = strings[strings.index(start):]
    report = VerificationReport(max_n, mode)

    def collect(rows):
        for row in rows:
            report.rows.append(row)
            if row_callback is not None:
                row_callback(row)

    if workers > 1:
        from multiprocessing import Pool  # costs every import qball several ms

        with Pool(workers) as pool:
            collect(pool.imap(_row_for, strings, chunksize=8))
    else:
        collect(map(_row_for, strings))
    return report
