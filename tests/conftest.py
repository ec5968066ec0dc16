import random
import time
from math import isqrt

import pytest

from qball.chainstring import cyclic_blocks, linear_dual, reverse
from qball.classifier import _ID, _S, NormalFormNotFound, _mat_mul, _t_pow
from qball.contfrac import ContfracError, hj_eval, is_square
from qball.embedsearch import EXHAUSTED, FOUND, SearchResult, _Engine, _square_partitions, _target_gram, gram_order
from qball.families import _MATCHERS, Witness, _match_s2c_blocks, _unbump_both_ends, member, side_condition_holds
from qball.lattice import NEGATIVE, POSITIVE
from oracles import rotate


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_string(rng, max_len=8, max_entry=9, force_big=True):
    n = rng.randrange(1, max_len + 1)
    s = [rng.randrange(2, max_entry + 1) for _ in range(n)]
    if force_big and max(s) < 3:
        s[rng.randrange(n)] = rng.randrange(3, max_entry + 1)
    return tuple(s)


def square_searches(strings):
    """The cyclic searches of these strings that pass the entry rule and
    the determinant test: those the metabolizer count decides."""
    for a in strings:
        for kind in (NEGATIVE, POSITIVE):
            if (kind == NEGATIVE or max(a) >= 3) and is_square(gram_order(a, kind)):
                yield a, kind


def assert_negative_cyclic_witness(a, vectors):
    """Check, coefficient by coefficient and with plain integer products,
    that vectors in (Z^n, -Id) have the Gram matrix of a negative cyclic
    subset with string a (length >= 3): -a_i on the diagonal, +1 between
    consecutive vectors, -1 on the wraparound pair, 0 elsewhere."""
    n = len(a)
    assert n >= 3 and len(vectors) == n
    assert all(len(v) == n and all(isinstance(x, int) for x in v) for v in vectors)
    for i in range(n):
        for j in range(n):
            if i == j:
                want = -a[i]
            elif abs(i - j) == 1:
                want = 1
            elif {i, j} == {0, n - 1}:
                want = -1
            else:
                want = 0
            got = -sum(x * y for x, y in zip(vectors[i], vectors[j]))
            assert got == want, (a, i, j, got, want)


def s1a_square_order(a) -> int:
    """Torsion order p^2 for a string in the family S1a.

    Here p is the numerator of the half-string of any S1a decomposition
    of a; the value does not depend on the decomposition and always
    agrees with torsion_order(a, -1).
    """
    hits = [w for w in member(a, mode="strict") if w.tag == "S1a"]
    if not hits:
        raise ContfracError(f"{tuple(a)} is not in the family S1a")
    orders = {hj_eval(w.params["b"]).p ** 2 for w in hits}
    if len(orders) != 1:
        raise AssertionError(f"S1a witnesses of {tuple(a)} disagree: {orders}")
    return orders.pop()


def _floor_quad(p: int, q: int, d: int) -> int:
    """floor((p + sqrt(d)) / q) for nonsquare d > 0, any q != 0."""
    f = isqrt(d)
    if q > 0:
        return (p + f) // q
    return -((p + f) // (-q)) - 1


def hyperbolic_cycle_digitwise(m):
    """Cycle of the repelling fixed point's expansion, with conjugator.

    The expansion step x -> 1/(digit - x) conjugates the matrix by
    S*T^-digit; once the exact state (p, q) of the quadratic irrational
    (p + sqrt(disc))/q repeats, the digits in between form the cycle
    word w and the composed conjugator C satisfies
    C m C^-1 = string_matrix(w)^k.  Returns (w, C).

    One digit per step: the oracle for the classifier's walk, which takes
    each run of 2s in one step.
    """
    a, b, c, d = m[0][0], m[0][1], m[1][0], m[1][1]
    if c == 0:
        raise NormalFormNotFound(f"trace {a + d} matrix with c = 0 cannot be hyperbolic")
    disc = (a + d) ** 2 - 4
    p, q = d - a, -2 * c  # the repelling root ((a-d) - sqrt(disc))/(2c)
    states = {}
    digits = []
    for step in range(100000):
        key = (p, q)
        if key in states:
            start = states[key]
            word = tuple(digits[start:])
            # conjugator: undo the final S, then the preperiod steps
            pre = _ID
            for x in digits[:start]:
                pre = _mat_mul(_mat_mul(_S, _t_pow(-x)), pre)
            s_inv = ((0, -1), (1, 0))
            return word, _mat_mul(s_inv, pre)
        states[key] = step
        digit = _floor_quad(p, q, disc) + 1  # ceil; the value is irrational
        digits.append(digit)
        p2 = digit * q - p
        q2 = (p2 * p2 - disc) // q
        p, q = p2, q2
    raise NormalFormNotFound("fixed-point expansion did not cycle")


# ---------------------------------------------------------------------------
# the raw membership scan: every matcher on every rotation, every split
# tried with linear_dual; the oracle for families.member's I gate and
# split-length test


def _is_dual_pair(b, c) -> bool:
    if b == (1,):
        return c == ()
    if not b or min(b) < 2:
        return False
    return linear_dual(b) == tuple(c)


def _raw_match_s1abc(s, mid: int, last: int):
    # s = b + (mid,) + reverse(c) + (last,), over all splits
    n = len(s)
    if s[n - 1] != last:
        return
    for k in range(1, n - 2):
        if s[k] != mid:
            continue
        b = s[:k]
        c = reverse(s[k + 1 : n - 1])
        if min(b) >= 2 and (not c or min(c) >= 2) and _is_dual_pair(b, c):
            yield {"b": b, "c": c, "k": len(b), "l": len(c)}


def _raw_match_s1d(s):
    n = len(s)
    if n < 6 or s[0] != 2 or s[n - 1] != 2:
        return
    for k in range(1, n - 4):
        if s[k + 1] != 2 or s[k + 2] != 2:
            continue
        b = _unbump_both_ends(s[1 : k + 1])
        cpart = s[k + 3 : n - 1]
        if b is None or not cpart:
            continue
        c = _unbump_both_ends(reverse(cpart))
        if c is None:
            continue
        if _is_dual_pair(b, c):
            yield {"b": b, "c": c, "k": len(b), "l": len(c)}


def _raw_match_s2a(s):
    n = len(s)
    if s[0] < 5:
        # b_1 + 3 with b_1 >= 2 needs s[0] >= 5, except the b = (1) case
        if s == (4, 2):
            yield {"b": (1,), "c": (), "k": 1, "l": 0}
        return
    for k in range(1, n):
        if s[k] != 2:
            continue
        b = (s[0] - 3,) + s[1:k]
        c = reverse(s[k + 1 :])
        if min(b) >= 2 and (not c or min(c) >= 2) and _is_dual_pair(b, c):
            yield {"b": b, "c": c, "k": len(b), "l": len(c)}


def _raw_match_s2b(s):
    n = len(s)
    x = s[0] - 3
    if x < 0:
        return
    for k in range(1, n):
        run_end = 1 + k + x
        if run_end >= n:
            break
        if any(v != 2 for v in s[1 + k : run_end]):
            continue
        head = s[1 : 1 + k]
        if head[-1] < 3:
            continue
        b = head[:-1] + (head[-1] - 1,)
        tail = s[run_end:]
        if tail[0] < 3:
            continue
        cpart = (tail[0] - 1,) + tail[1:]
        c = reverse(cpart)
        if min(b) >= 2 and min(c) >= 2 and _is_dual_pair(b, c):
            yield {"b": b, "c": c, "x": x, "k": len(b), "l": len(c)}


def _raw_match_s2e(s):
    if s == (2, 2, 2, 3):
        yield {"sporadic": True}
    n = len(s)
    if n < 5 or s[0] != 2 or s[n - 1] != 2:
        return
    for k in range(1, n - 3):
        if s[k + 1] != 2:
            continue
        head = s[1 : k + 1]
        if head[0] < 3:
            continue
        b = (head[0] - 1,) + head[1:]
        tail = s[k + 2 : n - 1]
        if not tail or tail[-1] < 3:
            continue
        cpart = tail[:-1] + (tail[-1] - 1,)
        c = reverse(cpart)
        if min(b) >= 2 and min(c) >= 2 and _is_dual_pair(b, c):
            yield {"b": b, "c": c, "k": len(b), "l": len(c)}


_RAW_MATCHERS = {
    **_MATCHERS,
    "S1a": lambda s: _raw_match_s1abc(s, 2, 2),
    "S1b": lambda s: _raw_match_s1abc(s, 2, 5),
    "S1c": lambda s: _raw_match_s1abc(s, 3, 3),
    "S1d": _raw_match_s1d,
    "S2a": _raw_match_s2a,
    "S2b": _raw_match_s2b,
    "S2e": _raw_match_s2e,
    # the package's S2c matcher reads the cyclic blocks the scan parses
    "S2c": lambda s: _match_s2c_blocks(cyclic_blocks(s)) if s[0] >= 3 else (),
}


def member_raw(a, mode: str) -> list:
    """families.member without the I gate or the split-length test."""
    a = tuple(a)
    seen = set()
    out = []
    for flipped in (False, True):
        base = reverse(a) if flipped else a
        for k in range(len(a)):
            s = rotate(base, k)
            for tag in _RAW_MATCHERS:
                for params in _RAW_MATCHERS[tag](s):
                    key = (tag, k, flipped, repr(sorted(params.items())))
                    if key not in seen and side_condition_holds(tag, params, mode):
                        seen.add(key)
                        out.append(Witness(tag, k, flipped, params))
    out.sort(key=lambda w: (w.tag, w.rotation, w.reversed))
    return out


def member_tag_sets(a) -> tuple[set, set]:
    """(strict, relaxed) tag sets of a read off every witness of
    member(a, "relaxed"): the strict ones are the relaxed witnesses that
    meet the side conditions as written.  The oracle for
    families.mode_tag_sets, which stops scanning a tag once it is decided."""
    witnesses = member(a, "relaxed")
    strict = {w.tag for w in witnesses if side_condition_holds(w.tag, w.params, "strict")}
    return strict, {w.tag for w in witnesses}


def discriminant_form_hj(a, kind: str):
    """embedsearch.discriminant_form with every continuant N(a_i..a_j)
    read as the numerator of hj_eval, for a cyclic kind and n >= 3."""
    n = len(a)
    w = -_target_gram(a, kind)[(0, n - 1)]

    def cont(i, j):  # N(a_i..a_j), 1 on an empty range
        return hj_eval(a[i : j + 1]).p

    R = (
        (cont(0, n - 2), w * cont(1, n - 2) - 1),
        (w - cont(0, n - 3), a[n - 1] - w * cont(1, n - 3)),
    )
    return R, (cont(1, n - 1), 1 - w * cont(1, n - 2), cont(0, n - 2))


# ---------------------------------------------------------------------------
# the engine without the class rule: every used column's coefficient runs
# over the whole range; the oracle for _Engine's symmetry reduction among
# columns that the placed vectors treat alike


class OracleEngine(_Engine):
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
            for c in range(-bound, bound + 1):
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


# ---------------------------------------------------------------------------
# the search with no symmetry reduction at all: the oracle for the
# engine's completeness on small strings


def _all_vectors(n: int, square: int):
    """Every v in Z^n with sum of squares equal to `square` (no reduction)."""
    out = []

    def rec(j, left, prefix):
        if j == n:
            if left == 0:
                out.append(tuple(prefix))
            return
        bound = isqrt(left)
        for c in range(-bound, bound + 1):
            rec(j + 1, left - c * c, prefix + [c])

    rec(0, square, [])
    return out


def naive_find(a, kind: str) -> SearchResult:
    """Existence oracle with no symmetry reduction (small n only).

    Assigns positions in listed order from the raw candidate lists of
    all coordinate vectors of the right square, pruning only on exact
    pairwise products.  Deliberately shares no generation logic with
    the reduced engine.
    """
    a = tuple(a)
    n = len(a)
    if n > 5:
        raise ValueError("the naive oracle is for n <= 5")
    t0 = time.perf_counter()
    if kind == POSITIVE and max(a) < 3:  # positive cyclic needs an entry >= 3
        return SearchResult(EXHAUSTED, None, 0, time.perf_counter() - t0)
    targets = _target_gram(a, kind)
    candidates = {i: _all_vectors(n, a[i]) for i in range(n)}
    nodes = 0
    placed: list[tuple[int, ...]] = []

    def product(v, w):
        return -sum(x * y for x, y in zip(v, w))

    def extend(i):
        nonlocal nodes
        if i == n:
            return True
        for v in candidates[i]:
            nodes += 1
            ok = True
            for q in range(i):
                key = (q, i)
                if product(placed[q], v) != targets.get(key, 0):
                    ok = False
                    break
            if ok:
                placed.append(v)
                if extend(i + 1):
                    return True
                placed.pop()
        return False

    outcome = FOUND if extend(0) else EXHAUSTED
    return SearchResult(outcome, None, nodes, time.perf_counter() - t0)
