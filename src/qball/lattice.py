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

Contractions shrink a cyclic subset by one: a basis column hit by
exactly three vertices, two of them an adjacent pair (v_s, v_stilde)
with v_stilde of square -2, lets v_stilde merge into v_s while the
third vertex v_t sheds its coordinate on that column, raising its
square by one.  The move preserves the kind, the I invariant and every
incidence count p_j except p_3, which drops by one.  "Centered" means
v_t is adjacent to v_s, "rooted" means v_t meets neither.  Expansions
are the inverse moves; both are verified against each other here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as QQ

from .chainstring import canonical_form

STANDARD = "standard"
NEGATIVE = "negative_cyclic"
POSITIVE = "positive_cyclic"
INVALID = "invalid"

Vector = tuple[int, ...]


class LatticeError(ValueError):
    """Raised on malformed subsets or inapplicable moves."""


def dot(v: Vector, w: Vector) -> int:
    """The negative definite pairing -sum(v_j w_j)."""
    return -sum(x * y for x, y in zip(v, w, strict=True))


def gram(vectors) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(dot(v, w) for w in vectors) for v in vectors)


def _rank(vectors) -> int:
    # fraction-free enough for our sizes: row reduce over QQ
    rows = [[QQ(x) for x in v] for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@dataclass(frozen=True)
class Contraction:
    """Provenance of a contraction, enough to re-expand it."""

    move: str  # "centered" or "rooted"
    s: int
    s_tilde: int
    t: int
    basis: int  # dropped column index in the parent's coordinates
    parent_vectors: tuple[Vector, ...]


@dataclass(frozen=True)
class LatticeSubset:
    """An ordered tuple of vectors with its recognized kind and string."""

    vectors: tuple[Vector, ...]
    kind: str
    string: tuple[int, ...]
    provenance: Contraction | None = field(default=None, compare=False)

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


def is_independent(s: LatticeSubset) -> bool:
    return _rank(s.vectors) == len(s.vectors)


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


@dataclass(frozen=True)
class IncidenceBound:
    lhs: int
    rhs: int
    holds: bool
    equality_applicable: bool
    rhs_equality: int | None
    equality_holds: bool | None


def incidence_bound_check(s: LatticeSubset) -> IncidenceBound:
    """The count inequality 2*p_1 + p_2 >= sum_{j>=4} (j-3)*p_j.

    Needs I(S) <= 0.  When every coefficient is 0 or +-1 the inequality
    sharpens to the equality 2*p_1 + p_2 = sum (j-3)*p_j - I(S).
    """
    if subset_i_invariant(s) > 0:
        raise LatticeError("incidence bound needs I(S) <= 0")
    st = incidence_stats(s)
    lhs = 2 * st.p_count(1) + st.p_count(2)
    rhs = sum((j - 3) * c for j, c in st.p.items() if j >= 4)
    applicable = st.max_coeff <= 1
    rhs_eq = rhs - subset_i_invariant(s) if applicable else None
    return IncidenceBound(
        lhs,
        rhs,
        lhs >= rhs,
        applicable,
        rhs_eq,
        (lhs == rhs_eq) if applicable else None,
    )


def negate_vertex(s: LatticeSubset, k: int) -> LatticeSubset:
    """Replace v_k by -v_k; the kind and string are unchanged."""
    if not 0 <= k < s.n:
        raise LatticeError(f"vertex index {k} out of range")
    vectors = list(s.vectors)
    vectors[k] = tuple(-c for c in vectors[k])
    out = classify_subset(vectors)
    if out.kind != s.kind or out.kind in (NEGATIVE, POSITIVE) and out.string != s.string:
        raise AssertionError("negating a vertex changed the subset kind")
    return out


# ---------------------------------------------------------------------------
# contractions


def _cyclic_neighbors(i: int, n: int) -> tuple[int, int]:
    return ((i - 1) % n, (i + 1) % n)


def contraction_sites(s: LatticeSubset) -> list[dict]:
    """All legal contraction moves on a cyclic subset.

    Each site records the move type, the merged pair (s, s_tilde), the
    shrinking vertex t and the basis column.  Centered moves need v_t
    adjacent to v_s; rooted moves need v_t orthogonal to both.
    """
    if s.kind not in (NEGATIVE, POSITIVE) or s.n < 3:
        return []
    n = s.n
    st = incidence_stats(s)
    diag = [-dot(v, v) for v in s.vectors]
    sites = []
    for col, hits in st.E.items():
        if len(hits) != 3:
            continue
        if any(abs(s.vectors[u][col]) != 1 for u in hits):
            continue
        for v_s in hits:
            for v_st in set(_cyclic_neighbors(v_s, n)) & hits:
                others = hits - {v_s, v_st}
                if len(others) != 1:
                    continue
                (v_t,) = others
                if diag[v_st] != 2 or diag[v_t] < 3:
                    continue
                if st.V[v_s] & st.V[v_st] != {col}:
                    continue
                g_ts = dot(s.vectors[v_t], s.vectors[v_s])
                g_tst = dot(s.vectors[v_t], s.vectors[v_st])
                if abs(g_ts) == 1 and v_t in _cyclic_neighbors(v_s, n):
                    move = "centered"
                elif g_ts == 0 and g_tst == 0:
                    move = "rooted"
                else:
                    continue
                sites.append(
                    {"move": move, "s": v_s, "s_tilde": v_st, "t": v_t, "basis": col}
                )
    return sites


def _apply_contraction(s: LatticeSubset, site: dict) -> LatticeSubset:
    n = s.n
    vs, vst, vt, col = site["s"], site["s_tilde"], site["t"], site["basis"]
    vecs = list(s.vectors)
    # normalize so the merged pair has intersection +1 (a vertex flip,
    # which moves a negative intersection without changing the string);
    # the provenance records the normalized parent, which is the subset
    # the inverse expansion reproduces
    if dot(vecs[vs], vecs[vst]) == -1:
        vecs[vst] = tuple(-c for c in vecs[vst])
    if dot(vecs[vs], vecs[vst]) != 1:
        raise LatticeError("merged pair must intersect in +-1")
    merged = tuple(a + b for a, b in zip(vecs[vs], vecs[vst]))
    shrunk = list(vecs[vt])
    shrunk[col] = 0
    new_vecs = []
    for i in range(n):
        if i == vst:
            continue
        if i == vs:
            new_vecs.append(merged)
        elif i == vt:
            new_vecs.append(tuple(shrunk))
        else:
            new_vecs.append(vecs[i])
    dropped = [tuple(c for j, c in enumerate(v) if j != col) for v in new_vecs]
    out = classify_subset(dropped)
    if out.kind != s.kind:
        raise LatticeError(
            f"contraction changed kind {s.kind} -> {out.kind}; move was illegal"
        )
    record = Contraction(site["move"], vs, vst, vt, col, tuple(vecs))
    return LatticeSubset(out.vectors, out.kind, out.string, record)


def contract_centered(s: LatticeSubset, center: int, basis: int | None = None) -> LatticeSubset:
    """Contract at the center vertex; for n = 3 the column must be given."""
    sites = [x for x in contraction_sites(s) if x["move"] == "centered" and x["s"] == center]
    if basis is not None:
        sites = [x for x in sites if x["basis"] == basis]
    if not sites:
        raise LatticeError(f"vertex {center} is not a center of the subset")
    if len({x["basis"] for x in sites}) > 1:
        raise LatticeError(
            f"ambiguous center at vertex {center}; pass the basis column explicitly"
        )
    return _apply_contraction(s, sites[0])


def contract_rooted(s: LatticeSubset, root: int, basis: int) -> LatticeSubset:
    """Contract rooted at v_root relative to the given basis column."""
    sites = [
        x
        for x in contraction_sites(s)
        if x["move"] == "rooted" and x["t"] == root and x["basis"] == basis
    ]
    if not sites:
        raise LatticeError(f"no rooted contraction at vertex {root} on column {basis}")
    return _apply_contraction(s, sites[0])


# ---------------------------------------------------------------------------
# expansions (inverse moves, used to generate test subjects)


def expansion_sites(s: LatticeSubset) -> list[dict]:
    """Candidate -2-expansions of a cyclic subset.

    An expansion picks a cycle edge (u, w) whose intersection is carried
    entirely by one column m on which w has a unit coefficient, splits w
    into a fresh -2 bridge vertex c_w*(e_m - e_new) plus a rerouted
    remainder, and adds the new column to a grow vertex t (t = u is the
    length-2 and wraparound case), raising a_t by one.  Sites are only
    candidates; expand() validates the resulting Gram matrix.
    """
    if s.kind not in (NEGATIVE, POSITIVE):
        return []
    n = s.n
    vecs = s.vectors
    sites = []
    for u in range(n):
        w = (u + 1) % n
        for m in range(n):
            cu, cw = vecs[u][m], vecs[w][m]
            if cu == 0 or cw == 0:
                continue
            if dot(vecs[u], vecs[w]) != -cu * cw:
                continue  # edge not carried by column m alone
            if abs(cw) == 1:
                for t in range(n):
                    if t != w:
                        sites.append({"u": u, "w": w, "m": m, "t": t, "split": "w"})
            if abs(cu) == 1:
                for t in range(n):
                    if t != u:
                        sites.append({"u": u, "w": w, "m": m, "t": t, "split": "u"})
    return sites


def expand_all(s: LatticeSubset, site: dict):
    """Yield every legal subset a -2-expansion at the site can produce.

    Each result has one more vertex (the bridge, inserted between u and
    w), the same kind and the same I invariant.  By default the later
    endpoint w of the edge is split; sites with split = "u" split the
    earlier one (the mirror move, run on the reversed cycle).  The sign
    variants differ only by negated vertices, i.e. by where the negative
    intersections sit.
    """
    n = s.n
    if site.get("split", "w") == "u":
        rev = classify_subset(tuple(reversed(s.vectors)))
        mirror = {
            "u": n - 1 - site["w"],
            "w": n - 1 - site["u"],
            "m": site["m"],
            "t": n - 1 - site["t"],
        }
        for out in expand_all(rev, mirror):
            yield classify_subset(tuple(reversed(out.vectors)))
        return
    u, w, m, t = site["u"], site["w"], site["m"], site["t"]
    if (u + 1) % n != w or t == w:
        return
    cw = s.vectors[w][m]
    if abs(cw) != 1:
        return
    new_col = n
    for bridge_sign in (1, -1):
        rows = [list(v) + [0] for v in s.vectors]
        rows[w][m] = 0
        rows[w][new_col] = bridge_sign * cw
        bridge = [0] * (n + 1)
        bridge[m] = cw
        bridge[new_col] = -bridge_sign * cw
        for t_sign in (1, -1):
            rows[t][new_col] = t_sign
            if w == 0:
                # the split edge wraps; the bridge closes the seam and can
                # be listed at either end (the same cyclic order)
                orderings = [
                    [tuple(r) for r in rows] + [tuple(bridge)],
                    [tuple(bridge)] + [tuple(r) for r in rows],
                ]
            else:
                orderings = [
                    [tuple(r) for r in rows[:w]]
                    + [tuple(bridge)]
                    + [tuple(r) for r in rows[w:]]
                ]
            for ordered in orderings:
                out = classify_subset(ordered)
                if out.kind == s.kind:
                    yield out


def expand(s: LatticeSubset, site: dict) -> LatticeSubset:
    """First legal result of expand_all; raises when the site is illegal."""
    for out in expand_all(s, site):
        return out
    raise LatticeError(f"no legal expansion at site {site}")


def random_expansion(s: LatticeSubset, rng) -> LatticeSubset | None:
    """One random legal expansion of s, or None if none applies."""
    sites = expansion_sites(s)
    rng.shuffle(sites)
    for site in sites:
        try:
            return expand(s, site)
        except LatticeError:
            continue
    return None


# ---------------------------------------------------------------------------
# named fixtures


def _star_vectors(k: int) -> list[Vector]:
    n = 2 * k + 1

    def e(i):  # 1-based basis vector in Z^n
        v = [0] * n
        v[i - 1] = 1
        return v

    def minus(*terms):
        out = [0] * n
        for sign, vec in terms:
            out = [a + sign * b for a, b in zip(out, vec)]
        return tuple(out)

    vecs = []
    for j in range(k):
        vecs.append(minus((1, e(2 * j + 1)), (-1, e(2 * j + 2)), (-1, e(2 * j + 3))))
    vecs.append(minus((1, e(2 * k + 1)), (-1, e(1)), (-1, e(2))))
    for j in range(k):
        vecs.append(minus((1, e(2 * j + 2)), (-1, e(2 * j + 3)), (-1, e(2 * j + 4 if 2 * j + 4 <= n else (2 * j + 4) - n))))
    return vecs


def _vec(n: int, *terms) -> Vector:
    """Sum of signed 1-based basis vectors in Z^n, e.g. _vec(4, 1, -2)."""
    out = [0] * n
    for term in terms:
        idx = abs(term) - 1
        out[idx] += 1 if term > 0 else -1
    return tuple(out)


def _star_expanded(k: int) -> LatticeSubset:
    # the k >= 1 family with string (4, 3^[k], 2, 3^[k]): split the edge
    # after the (k+1)-st star vertex over the e_2 column, growing the first
    star = classify_subset(_star_vectors(k))
    return expand(star, {"u": k, "w": k + 1, "m": 1, "t": 0})


def _chain_cycle(n: int) -> list[Vector]:
    vecs = [_vec(n, i, -(i + 1)) for i in range(1, n)]
    vecs.append(_vec(n, n, 1))
    return vecs


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
    if case == "3c":
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
    raise LatticeError(f"unknown catalog case {case!r}")


def check_catalog_2c(s: LatticeSubset) -> bool:
    """Constraint checker for the free-vector standard catalog family.

    The I = -2 catalog family with string (b_1,...,b_k+1,2,2,c_l+1,...,
    c_1) is described by side conditions rather than a closed form, so
    this verifies a candidate instead of generating one: the subset must
    be standard with unit coefficients and its string must split at the
    central (2,2) into end-bumped linear-dual halves; the two final
    vertices must share a column of multiplicity two with opposite
    signs on a multiplicity-three column they also share with a vertex
    adjacent to an end.
    """
    from .chainstring import linear_dual

    if s.kind != STANDARD:
        return False
    st = incidence_stats(s)
    if st.max_coeff > 1 or subset_i_invariant(s) != -2:
        return False
    n = s.n
    strings = [s.string, tuple(reversed(s.string))]
    split_ok = False
    for string in strings:
        for k in range(1, n - 3):
            if string[k + 1] != 2 or string[k + 2] != 2:
                continue
            head = string[: k + 1]
            tail = string[k + 3 :]
            if not tail:
                continue
            b = head[:-1] + (head[-1] - 1,)
            c = tuple(reversed((tail[0] - 1,) + tail[1:]))
            if min(b) >= 2 and min(c) >= 2 and linear_dual(b) == c and len(b) + len(c) >= 3:
                split_ok = True
    if not split_ok:
        return False
    first, last = s.vectors[0], s.vectors[-1]
    shared_two = any(
        len(st.E[j]) == 2 and st.E[j] == frozenset({0, n - 1}) for j in range(n)
    )
    opposed_three = any(
        len(st.E[j]) == 3
        and 0 in st.E[j]
        and n - 1 in st.E[j]
        and first[j] * last[j] == -1
        for j in range(n)
    )
    return shared_two and opposed_three


FIXTURE_DOC = {
    "base2_negative": "length-2 negative cycle, string (2,2)",
    "base2_positive": "length-2 positive cycle, string (4,2)",
    "base3_negative": "length-3 negative cycle, string (2,2,2)",
    "base3_positive_522": "length-3 positive cycle, string (5,2,2)",
    "base3_positive_333": "length-3 positive cycle, string (3,3,3)",
    "chain_cycle": "negative cycle (2^[n]), parameter n >= 2",
    "chain_cycle_alt": "the alternate (2,2,2,2) negative cycle with p1 = p3 = 2",
    "length5_23232": "positive cycle with string (2,3,2,3,2)",
    "length5_23532": "positive cycle with string (2,3,5,3,2)",
    "exceptional": "negative cycle with string (6,2,2,2,6,2,2,2)",
    "star": "positive cycle (3^[2k+1]), parameter k >= 1",
    "star_expanded": "positive cycle (4,3^[k],2,3^[k]), parameter k >= 1",
    "standard_2a": "standard subset (2^[x],3,2+y,2+x,3,2^[y])",
    "standard_2b": "standard subset (2^[x],3+y,2,2+x,3,2^[y])",
    "standard_3a": "standard subset (2+x,2+y,3,2^[x],4,2^[y])",
    "standard_3b": "standard subset (2+x,2,3+y,2^[x],4,2^[y])",
    "standard_3c": "standard subset (3+x,2,3+y,3,2^[x],3,2^[y])",
}


def fixture(name: str, **params) -> LatticeSubset:
    """Build a named subset; see FIXTURE_DOC for the catalog."""
    if name == "base2_negative":
        vecs = [_vec(2, 1, -2), _vec(2, 2, 1)]
    elif name == "base2_positive":
        vecs = [(2, 0), (-1, 1)]
    elif name == "base3_negative":
        vecs = _chain_cycle(3)
    elif name == "base3_positive_522":
        vecs = [(2, 0, -1), (-1, 0, -1), (0, 1, 1)]
    elif name == "base3_positive_333":
        vecs = [_vec(3, 1, -2, -3), _vec(3, 3, -1, -2), _vec(3, 2, -3, -1)]
    elif name == "chain_cycle":
        vecs = _chain_cycle(params["n"])
    elif name == "chain_cycle_alt":
        vecs = [_vec(4, 1, -2), _vec(4, 2, -3), _vec(4, -2, -1), _vec(4, 1, 4)]
    elif name == "length5_23232":
        vecs = [
            _vec(5, -2, -4),
            _vec(5, 2, 3, -1),
            _vec(5, 5, -3),
            _vec(5, 4, 3, -2),
            _vec(5, 2, 1),
        ]
    elif name == "length5_23532":
        vecs = [
            _vec(5, -2, -4),
            _vec(5, 2, 3, -1),
            (0, 0, -1, 0, 2),
            _vec(5, 4, 3, -2),
            _vec(5, 2, 1),
        ]
    elif name == "exceptional":
        vecs = [
            _vec(8, 2, 3, 4, 5, 6, 7),
            _vec(8, 1, -2),
            _vec(8, 2, -3),
            _vec(8, 3, -4),
            _vec(8, -1, -2, -3, 5, 6, 8),
            _vec(8, 7, -6),
            _vec(8, 6, -5),
            _vec(8, 5, -8),
        ]
    elif name == "star":
        vecs = _star_vectors(params["k"])
    elif name == "star_expanded":
        return _star_expanded(params["k"])
    elif name.startswith("standard_"):
        vecs = _standard_catalog(name.removeprefix("standard_"), params["x"], params["y"])
    else:
        raise LatticeError(f"unknown fixture {name!r}")
    return classify_subset(vecs)
