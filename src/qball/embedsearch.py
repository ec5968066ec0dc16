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
form by an automorphism, so Exhausted answers are complete.

Vectors with square -a have all coordinates bounded by isqrt(a); the
candidate generator prunes on exact pairwise products with everything
already assigned (new columns never meet older vectors, so partial
products must land exactly).

find_embedding and find_standard first apply a determinant certificate:
n vectors realizing the Gram matrix Q make Q = -A A^T with A the square
integer matrix of their coordinates, so |det Q| = det(A)^2 is a perfect
square; when it is not, the answer is Exhausted without a search node.
gram_order() reads |det Q| off values computed in O(n).

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
from math import isqrt
from multiprocessing import Pool

from .chainstring import canonical_form, i_invariant, validate_chain
from .contfrac import hj_eval, is_square, monodromy_matrix
from .families import (
    EXCEPTIONAL_TAG,
    S1_TAGS,
    S2_TAGS,
    enumerate_strings,
    mode_tag_sets,
)
from .lattice import NEGATIVE, POSITIVE, STANDARD, LatticeSubset, classify_subset

FOUND = "found"
EXHAUSTED = "exhausted"
BUDGET_EXCEEDED = "budget_exceeded"

# what decided a search: the backtracking engine, or a non-square
# Gram determinant (which proves Exhausted with zero nodes)
SEARCH = "search"
DET_NONSQUARE = "det-nonsquare"

DEFAULT_BUDGET = 10**9

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


class BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
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
    """Prescribed products G[i][j] for i < j, as a dict, or None if the
    kind is impossible outright (positive cyclic needs an entry >= 3)."""
    n = len(a)
    targets = {}
    if kind == STANDARD:
        for i in range(n - 1):
            targets[(i, i + 1)] = 1
        return targets
    if kind not in (NEGATIVE, POSITIVE):
        raise ValueError(f"unknown search kind {kind!r}")
    if kind == POSITIVE and max(a) < 3:
        return None
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
    return monodromy_matrix(a).trace + (2 if kind == NEGATIVE else -2)


def _search(a, kind, budget) -> SearchResult:
    """The engine behind a determinant prefilter: a non-square |det Q|
    proves Exhausted before any node is spent."""
    t0 = time.perf_counter()
    if _target_gram(a, kind) is not None:
        if not is_square(gram_order(a, kind)):
            return SearchResult(EXHAUSTED, None, 0, time.perf_counter() - t0, DET_NONSQUARE)
    return _Engine(a, kind, budget).run()


class _Engine:
    def __init__(self, a, kind, budget):
        self.a = a
        self.n = len(a)
        self.kind = kind
        self.budget = budget
        self.nodes = 0
        self.witness = None
        targets = _target_gram(a, kind)
        self.impossible = targets is None
        self.targets = targets or {}
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

    def run(self):
        t0 = time.perf_counter()
        if self.impossible:
            return SearchResult(EXHAUSTED, None, 0, time.perf_counter() - t0)
        placed: list[tuple[int, tuple[int, ...]]] = []

        def extend(k, used):
            if k == self.n:
                self.witness = {pos: v for pos, v in placed}
                return True
            pos = self.order[k]
            for v, new_used in self._candidates(pos, placed, used):
                self.nodes += 1
                if self.nodes > self.budget:
                    raise BudgetExceeded
                placed.append((pos, v))
                if extend(k + 1, new_used):
                    return True
                placed.pop()
            return False

        try:
            hit = extend(0, 0)
        except BudgetExceeded:
            return SearchResult(BUDGET_EXCEEDED, None, self.nodes, time.perf_counter() - t0)
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


def find_embedding(a, kind: str, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Decide whether a cyclic subset of the given kind realizes a."""
    a = validate_chain(a)
    if len(a) < 2:
        raise ValueError("embedding queries need length >= 2")
    if kind not in (NEGATIVE, POSITIVE):
        raise ValueError(f"kind must be {NEGATIVE} or {POSITIVE}, got {kind!r}")
    return _search(a, kind, budget)


def find_standard(b, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Decide whether a standard subset realizes the linear string b."""
    b = tuple(b)
    if len(b) < 2:
        raise ValueError("standard queries need length >= 2")
    for x in b:
        if x < 2:
            raise ValueError(f"entry {x} < 2 in {b}")
    return _search(b, STANDARD, budget)


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


def naive_find(a, kind: str, budget: int = DEFAULT_BUDGET) -> SearchResult:
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
    targets = _target_gram(a, kind)
    if targets is None:
        return SearchResult(EXHAUSTED, None, 0, time.perf_counter() - t0)
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
            if nodes > budget:
                raise BudgetExceeded
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

    try:
        hit = extend(0)
    except BudgetExceeded:
        return SearchResult(BUDGET_EXCEEDED, None, nodes, time.perf_counter() - t0)
    outcome = FOUND if hit else EXHAUSTED
    return SearchResult(outcome, None, nodes, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# the classification sweep


@dataclass(frozen=True)
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
        neg_expected = s1 or self.exceptional
        pos_expected = s2
        if BUDGET_EXCEEDED in (self.neg, self.pos):
            return False
        return (self.neg == FOUND) == neg_expected and (self.pos == FOUND) == pos_expected

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


def _row_for(args) -> Row:
    a, budget = args
    tags_strict, tags_relaxed = mode_tag_sets(a)
    neg = find_embedding(a, NEGATIVE, budget)
    pos = find_embedding(a, POSITIVE, budget)
    return Row(
        string=a,
        i_inv=i_invariant(a),
        s1_strict=bool(tags_strict & set(S1_TAGS)),
        s1_relaxed=bool(tags_relaxed & set(S1_TAGS)),
        s2_strict=bool(tags_strict & set(S2_TAGS)),
        s2_relaxed=bool(tags_relaxed & set(S2_TAGS)),
        exceptional=EXCEPTIONAL_TAG in tags_strict,
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
    budget: int = DEFAULT_BUDGET,
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
    strings = list(sweep_strings(max_n))
    if skip_until is not None:
        start = canonical_form(skip_until)
        if start not in strings:
            raise ValueError(f"skip-until string {tuple(skip_until)} is not in the max_n={max_n} sweep")
        strings = strings[strings.index(start):]
    report = VerificationReport(max_n, mode)
    jobs = [(a, budget) for a in strings]

    def collect(rows):
        for row in rows:
            report.rows.append(row)
            if row_callback is not None:
                row_callback(row)

    if workers > 1:
        with Pool(workers) as pool:
            collect(pool.imap(_row_for, jobs, chunksize=8))
    else:
        collect(map(_row_for, jobs))
    return report
