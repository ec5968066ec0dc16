"""Subsets of the negative definite lattice (Z^n, -Id).

Vectors are integer coordinate tuples against the standard basis, with
the pairing v.w = -sum(v_j * w_j), so e_i . e_j = -delta_ij.  A subset
of n vectors in Z^n is *standard* when its Gram matrix is a path with
diagonal entries <= -2 and off-diagonal +-1 on consecutive pairs, and
*cyclic* when the path closes up.  Negating a vertex flips the sign of
its two incident intersections without changing the associated string
(a_1, ..., a_n), a_i = -v_i.v_i, so the only sign invariant of a cycle
is the parity of its negative intersections: odd parity is a negative
cyclic subset, even parity a positive one (the positive kind also
requires some a_i >= 3; for n = 2 the double edge carries the sum of
both signs, 0 or +-2).

incidence_stats records which vertices hit which basis columns and
p_j, the number of columns hit exactly j times.  Contractions (Lisca
2007) shrink a cyclic subset by one vertex and expansions grow it; no
decision uses them, so they are reference code with the tests
(tests/oracles.py), as are the incidence bound and the catalog checks.

The named subsets of the catalog come from one table, _FIXTURES, which
also gives FIXTURE_DOC and the least value of each parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import mul

from .chainstring import canonical_form

STANDARD = "standard"
NEGATIVE = "negative_cyclic"
POSITIVE = "positive_cyclic"
INVALID = "invalid"

Vector = tuple[int, ...]


class LatticeError(ValueError):
    """Raised on malformed subsets or inapplicable moves."""


def gram(vectors) -> tuple[tuple[int, ...], ...]:
    """The matrix of pairings of vectors of one length; each pair is
    multiplied once and mirrored."""
    vectors = tuple(vectors)
    if len({len(v) for v in vectors}) > 1:
        raise LatticeError("Gram matrix of vectors of different lengths")
    n = len(vectors)
    rows = [[0] * n for _ in range(n)]
    for i, v in enumerate(vectors):
        row = rows[i]
        for j in range(i, n):
            row[j] = rows[j][i] = -sum(map(mul, v, vectors[j]))
    return tuple(map(tuple, rows))


@dataclass(frozen=True)
class LatticeSubset:
    """An ordered tuple of vectors with its recognized kind and string."""

    vectors: tuple[Vector, ...]
    kind: str
    string: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.vectors)

    def to_json(self) -> dict:
        return {
            "vectors": [list(v) for v in self.vectors],
            "kind": self.kind,
            "string": list(self.string),
        }


def subset_i_invariant(s: LatticeSubset) -> int:
    return sum(s.string) - 3 * len(s.string)


def _edge_pattern(g, order):
    """Cyclic edge values of g along the vertex order, or None."""
    n = len(order)
    edges = []
    for idx in range(n):
        i, j = order[idx], order[(idx + 1) % n]
        edges.append(g[i][j])
    for idx in range(n):
        for jdx in range(idx + 1, n):
            if jdx - idx in (1, n - 1):
                continue
            if g[order[idx]][order[jdx]] != 0:
                return None
    return edges


def classify_subset(vectors) -> LatticeSubset:
    """Recognize the kind of a subset of n vectors in Z^n.

    Cyclic kinds are detected on any rotation or reflection of the
    given vertex order; their associated string is returned in
    canonical form.  A standard subset keeps its listed order.
    """
    vectors = tuple(tuple(v) for v in vectors)
    n = len(vectors)
    if n < 2:
        raise LatticeError("subsets need at least 2 vectors")
    for v in vectors:
        if len(v) != n:
            raise LatticeError(f"vector {v} does not live in Z^{n}")
    g = gram(vectors)
    diag = tuple(-g[i][i] for i in range(n))
    if min(diag) < 2:
        return LatticeSubset(vectors, INVALID, diag)

    if n == 2:
        off = g[0][1]
        if off == 0:
            return LatticeSubset(vectors, NEGATIVE, canonical_form(diag))
        if abs(off) == 2 and max(diag) >= 3:
            return LatticeSubset(vectors, POSITIVE, canonical_form(diag))
        if abs(off) == 1:
            return LatticeSubset(vectors, STANDARD, diag)
        return LatticeSubset(vectors, INVALID, diag)

    # standard: the listed order (or its reversal) is a +-1 path
    path = _edge_pattern(g, list(range(n)))
    if path is not None and path[-1] == 0 and all(abs(e) == 1 for e in path[:-1]):
        return LatticeSubset(vectors, STANDARD, diag)

    orders = [list(range(n)), list(reversed(range(n)))]
    orders = [o[k:] + o[:k] for o in orders for k in range(n)]
    for order in orders:
        edges = _edge_pattern(g, order)
        if edges is None or any(abs(e) != 1 for e in edges):
            continue
        string = tuple(diag[i] for i in order)
        negatives = sum(1 for e in edges if e == -1)
        if negatives % 2 == 1:
            return LatticeSubset(vectors, NEGATIVE, canonical_form(string))
        if max(diag) >= 3:
            return LatticeSubset(vectors, POSITIVE, canonical_form(string))
        return LatticeSubset(vectors, INVALID, diag)
    return LatticeSubset(vectors, INVALID, diag)


@dataclass(frozen=True)
class IncidenceStats:
    """Which vertices hit which basis columns, and the counts p_i."""

    E: dict  # basis index -> frozenset of vertex indices
    V: dict  # vertex index -> frozenset of basis indices
    p: dict  # multiplicity -> number of basis columns hit that often
    max_coeff: int

    def p_count(self, i: int) -> int:
        return self.p.get(i, 0)


def incidence_stats(s: LatticeSubset) -> IncidenceStats:
    n = s.n
    E = {
        j: frozenset(i for i in range(n) if s.vectors[i][j] != 0)
        for j in range(n)
    }
    V = {
        i: frozenset(j for j in range(n) if s.vectors[i][j] != 0)
        for i in range(n)
    }
    p: dict[int, int] = {}
    for j in range(n):
        size = len(E[j])
        p[size] = p.get(size, 0) + 1
    max_coeff = max(abs(c) for v in s.vectors for c in v)
    return IncidenceStats(E, V, p, max_coeff)


# ---------------------------------------------------------------------------
# named fixtures


def _vec(n: int, *terms) -> Vector:
    """Sum of signed 1-based basis vectors in Z^n, e.g. _vec(4, 1, -2)."""
    out = [0] * n
    for term in terms:
        idx = abs(term) - 1
        out[idx] += 1 if term > 0 else -1
    return tuple(out)


def _star_vectors(k: int) -> list[Vector]:
    # v_i = e_i - e_{i+1} - e_{i+2}, indices mod 2k+1, odd i listed first
    n = 2 * k + 1
    order = [*range(1, n + 1, 2), *range(2, n, 2)]
    return [_vec(n, i, -(i % n + 1), -((i + 1) % n + 1)) for i in order]


def _star_expanded(k: int) -> list[Vector]:
    # the k >= 1 family with string (4, 3^[k], 2, 3^[k]): the star gains a
    # column e_new, which v_0 meets with -1 and v_{k+1} takes its e_2
    # coefficient to, and the -2 bridge e_2 - e_new enters before v_{k+1}
    n = 2 * k + 2
    rows = [list(v) + [0] for v in _star_vectors(k)]
    rows[0][-1] = -1
    rows[k + 1][1], rows[k + 1][-1] = 0, rows[k + 1][1]
    rows.insert(k + 1, _vec(n, 2, -n))
    return [tuple(r) for r in rows]


def _chain_cycle(n: int) -> list[Vector]:
    vecs = [_vec(n, i, -(i + 1)) for i in range(1, n)]
    vecs.append(_vec(n, n, 1))
    return vecs


def _length5(middle: Vector) -> list[Vector]:
    # the two length-5 positive cycles differ only in their middle vertex
    return [_vec(5, -2, -4), _vec(5, 2, 3, -1), middle, _vec(5, 4, 3, -2), _vec(5, 2, 1)]


def _path(n, lo, hi):
    # consecutive differences e_i - e_{i+1} for lo <= i < hi
    return [_vec(n, i, -(i + 1)) for i in range(lo, hi)]


def _standard_catalog(case: str, x: int, y: int) -> list[Vector]:
    """The cataloged standard subsets with I = -2 ('2a','2b') and I = -1."""
    if case in ("2a", "2b"):
        n = x + y + 4
        first = [_vec(n, i + 1, -i) for i in range(4, x + 4)][::-1]
        ys = list(range(x + 5, x + y + 5))
        if case == "2a":
            core = [
                _vec(n, 4, -2, -3),
                _vec(n, 2, 1, *ys),
                _vec(n, -2, -4, *[-i for i in range(5, x + 5)]),
                _vec(n, 2, -1, -3),
            ]
        else:
            core = [
                _vec(n, 4, -2, -3, *[-i for i in ys]),
                _vec(n, 2, 1),
                _vec(n, -2, -4, *[-i for i in range(5, x + 5)]),
                _vec(n, 2, -1, -3),
            ]
        tail_start = 1 if case == "2a" else 3
        tail = []
        if y >= 1:
            tail = [_vec(n, tail_start, -(x + 5))] + _path(n, x + 5, x + y + 4)
        return first + core + tail
    if case in ("3a", "3b"):
        n = x + y + 4
        xs = list(range(5, x + 5))
        ys = list(range(x + 5, x + y + 5))
        if case == "3a":
            head = [_vec(n, 2, 4, *xs), _vec(n, 1, -2, *ys), _vec(n, 2, -3, -4)]
        else:
            head = [_vec(n, 2, 4, *xs), _vec(n, 1, -2), _vec(n, 2, -3, -4, *[-i for i in ys])]
        mid = _path(n, 4, x + 4) + [_vec(n, x + 4, -1, -2, -3)]
        tail_start = 1 if case == "3a" else 3
        tail = []
        if y >= 1:
            tail = [_vec(n, tail_start, -(x + 5))] + _path(n, x + 5, x + y + 4)
        return head + mid + tail
    # "3c"
    n = x + y + 5
    xs = list(range(6, x + 6))
    ys = list(range(x + 6, x + y + 6))
    head = [
        _vec(n, 1, -2, -5, *[-i for i in xs]),
        _vec(n, 2, 3),
        _vec(n, -2, -1, -4, *[-i for i in ys]),
        _vec(n, -5, 2, -3),
    ]
    mid = _path(n, 5, x + 5) + [_vec(n, x + 5, 1, -4)]
    tail = []
    if y >= 1:
        tail = [_vec(n, 4, -(x + 6))] + _path(n, x + 6, x + y + 5)
    return head + mid + tail


# name -> (doc, least value of each parameter, builder of the vectors)
_FIXTURES = {
    "base2_negative": (
        "length-2 negative cycle, string (2,2)", {}, lambda: [_vec(2, 1, -2), _vec(2, 2, 1)]
    ),
    "base2_positive": ("length-2 positive cycle, string (4,2)", {}, lambda: [(2, 0), (-1, 1)]),
    "base3_negative": ("length-3 negative cycle, string (2,2,2)", {}, lambda: _chain_cycle(3)),
    "base3_positive_522": (
        "length-3 positive cycle, string (5,2,2)",
        {},
        lambda: [(2, 0, -1), (-1, 0, -1), (0, 1, 1)],
    ),
    "base3_positive_333": (
        "length-3 positive cycle, string (3,3,3)",
        {},
        lambda: [_vec(3, 1, -2, -3), _vec(3, 3, -1, -2), _vec(3, 2, -3, -1)],
    ),
    "chain_cycle": ("negative cycle (2^[n]), parameter n >= 2", {"n": 2}, _chain_cycle),
    "chain_cycle_alt": (
        "the alternate (2,2,2,2) negative cycle with p1 = p3 = 2",
        {},
        lambda: [_vec(4, 1, -2), _vec(4, 2, -3), _vec(4, -2, -1), _vec(4, 1, 4)],
    ),
    "length5_23232": (
        "positive cycle with string (2,3,2,3,2)", {}, lambda: _length5(_vec(5, 5, -3))
    ),
    "length5_23532": (
        "positive cycle with string (2,3,5,3,2)", {}, lambda: _length5((0, 0, -1, 0, 2))
    ),
    "exceptional": (
        "negative cycle with string (6,2,2,2,6,2,2,2)",
        {},
        lambda: [
            _vec(8, 2, 3, 4, 5, 6, 7), _vec(8, 1, -2), _vec(8, 2, -3), _vec(8, 3, -4),
            _vec(8, -1, -2, -3, 5, 6, 8), _vec(8, 7, -6), _vec(8, 6, -5), _vec(8, 5, -8),
        ],
    ),
    "star": ("positive cycle (3^[2k+1]), parameter k >= 1", {"k": 1}, _star_vectors),
    "star_expanded": (
        "positive cycle (4,3^[k],2,3^[k]), parameter k >= 1", {"k": 1}, _star_expanded
    ),
    **{
        f"standard_{case}": (
            f"standard subset {shape}", {"x": 0, "y": 0}, partial(_standard_catalog, case)
        )
        for case, shape in [
            ("2a", "(2^[x],3,2+y,2+x,3,2^[y])"),
            ("2b", "(2^[x],3+y,2,2+x,3,2^[y])"),
            ("3a", "(2+x,2+y,3,2^[x],4,2^[y])"),
            ("3b", "(2+x,2,3+y,2^[x],4,2^[y])"),
            ("3c", "(3+x,2,3+y,3,2^[x],3,2^[y])"),
        ]
    },
}

FIXTURE_DOC = {name: doc for name, (doc, _least, _build) in _FIXTURES.items()}


def fixture(name: str, **params) -> LatticeSubset:
    """Build a named subset; see FIXTURE_DOC for the catalog."""
    if name not in _FIXTURES:
        raise LatticeError(f"unknown fixture {name!r}")
    _doc, least, build = _FIXTURES[name]
    if params.keys() != least.keys():
        raise LatticeError(
            f"fixture {name!r} takes parameters {sorted(least)}, got {sorted(params)}"
        )
    for key, value in params.items():
        if value < least[key]:
            raise LatticeError(f"fixture {name!r} needs {key} >= {least[key]}, got {value}")
    return classify_subset(build(**params))
