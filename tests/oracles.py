"""Reference code the tests compare the package against.

None of this runs in a decision: the package reaches its verdicts by
family membership and by the embedding decider.  These definitions are
independent restatements and generators:

* the mixed-sign blowdown transform (dual_tail_coeffs) and the S2c
  half-reverse criterion built on it, with the S2a/S2b palindrome
  criteria, each checked against the family scan;
* the closed forms of the two chains bridging a linear-dual pair;
* the table of every family member up to a length;
* independence, the incidence count bound and the free-vector catalog
  check of lattice subsets;
* the contraction moves of cyclic subsets (Lisca 2007) and their
  inverse -2-expansions, which generate test subjects.  contract returns
  a ContractedSubset, which records the contracted parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as QQ

from qball.chainstring import StringError, cyclic_blocks, linear_dual, reverse, validate_chain
from qball.contfrac import ContfracError, Fraction, hj_eval
from qball.families import ALL_TAGS, enumerate_family
from qball.lattice import (
    NEGATIVE,
    POSITIVE,
    STANDARD,
    LatticeError,
    LatticeSubset,
    Vector,
    classify_subset,
    incidence_stats,
    subset_i_invariant,
)


# ---------------------------------------------------------------------------
# chainstring


class DegenerateCoefficientError(StringError):
    """Raised when a blowdown transform produces a 0 or +-1 coefficient.

    Such coefficients would call for further blowdowns that are not part
    of the transform, so they are reported instead of being reduced.
    """


def rotate(a, k: int) -> tuple[int, ...]:
    """Left rotation by k (mod n)."""
    a = tuple(a)
    k %= len(a)
    return a[k:] + a[:k]


def is_palindrome(b) -> bool:
    b = tuple(b)
    if not b:
        raise StringError("palindrome test needs a nonempty string")
    return b == reverse(b)


def dual_tail_coeffs(a, i: int) -> tuple[int, ...]:
    """Mixed-sign chain coefficients with the tail replaced by its dual.

    Splits a = (a_1, ..., a_i | a_{i+1}, ..., a_n), negates the head
    with its two end entries reduced by 1 (both reductions land on a_1
    when i = 1), and appends the linear dual of the tail:

        (-(a_1-1), -a_2, ..., -(a_i-1), d_1, ..., d_j).

    Raises DegenerateCoefficientError if any output coefficient is 0 or
    +-1, since those would require further blowdowns.
    """
    a = validate_chain(a)
    n = len(a)
    if not 1 <= i <= n - 1:
        raise StringError(f"split index {i} out of range for length {n}")
    head = list(a[:i])
    head[0] -= 1
    head[-1] -= 1
    tail_dual = linear_dual(a[i:])
    out = tuple(-x for x in head) + tail_dual
    for x in out:
        if abs(x) <= 1:
            raise DegenerateCoefficientError(
                f"transform of {a} at split {i} yields coefficient {x}"
            )
    return out


# ---------------------------------------------------------------------------
# contfrac


def dual_bridge_fractions(b, x: int) -> tuple[Fraction, Fraction]:
    """Closed-form values of the two chains bridging a dual pair by x+1.

    For linear-dual strings b, c with [b] = p/q and an integer x >= 1,
    the chain (b_1, ..., b_k, x+1, c_l, ..., c_1) evaluates to
    x*p^2 / (x*p*q + 1) and the companion chain (c_1, ..., c_l, x+1,
    b_k, ..., b_1) evaluates to x*p^2 / (x*p^2 - x*p*q + 1).
    """
    if x < 1:
        raise ContfracError(f"bridge parameter must be >= 1, got {x}")
    b = tuple(b)
    if not b:
        raise ContfracError("bridge needs a nonempty string")
    f = hj_eval(b)
    p, q = f.p, f.q
    return (
        Fraction(x * p * p, x * p * q + 1),
        Fraction(x * p * p, x * p * p - x * p * q + 1),
    )


# ---------------------------------------------------------------------------
# families


def s2c_halfreverse(a) -> bool:
    """Decide S2c membership from the blowdown transform alone.

    a (with some entry >= 3) lies in S2c exactly when some dihedral
    representative with first entry >= 3 admits a split i whose
    transformed coefficients have the shape (-d_1,...,-d_i, d_1,...,d_i).
    Splits producing 0 or +-1 coefficients simply do not match.  For
    length-1 strings there is no split; the only S2c string of length 1
    is (3).
    """
    a = validate_chain(a)
    cyclic_blocks(a)  # raises AllTwosError on all-2 input
    n = len(a)
    if n == 1:
        return a == (3,)
    for flipped in (False, True):
        base = reverse(a) if flipped else a
        for k in range(n):
            s = rotate(base, k)
            if s[0] < 3:
                continue
            for i in range(1, n):
                try:
                    coeffs = dual_tail_coeffs(s, i)
                except StringError:
                    continue
                if len(coeffs) != 2 * i:
                    continue
                head, tail = coeffs[:i], coeffs[i:]
                if tail == tuple(-x for x in head) and tail[0] >= 2 and tail[-1] >= 2:
                    return True
    return False


def palindrome_criterion(tag: str, b) -> bool:
    """Palindrome tests deciding when an S2a/S2b string is also in S2c.

    For the S2a string built on b the test is whether (b_1+1, b_2, ...,
    b_k) is a palindrome; for an S2b string it is whether b itself is.
    """
    b = tuple(b)
    if not b:
        raise StringError("palindrome criterion needs a nonempty string")
    if tag == "S2a":
        return is_palindrome((b[0] + 1,) + b[1:])
    if tag == "S2b":
        return is_palindrome(b)
    raise ValueError(f"palindrome criterion applies to S2a/S2b, not {tag!r}")


def enumerate_members(max_len: int, mode: str = "strict"):
    """Canonical members across all tags, with their tag sets."""
    table: dict[tuple[int, ...], set[str]] = {}
    for tag in ALL_TAGS:
        for s in enumerate_family(tag, max_len, mode):
            table.setdefault(s, set()).add(tag)
    return table


# ---------------------------------------------------------------------------
# lattice checks


def dot(v: Vector, w: Vector) -> int:
    """The negative definite pairing -sum(v_j w_j)."""
    return -sum(x * y for x, y in zip(v, w, strict=True))


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


def is_independent(s: LatticeSubset) -> bool:
    return _rank(s.vectors) == len(s.vectors)


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


# ---------------------------------------------------------------------------
# lattice moves


@dataclass(frozen=True)
class Contraction:
    """Provenance of a contraction, enough to re-expand it."""

    site: dict  # the applied entry of contraction_sites(parent)
    parent_vectors: tuple[Vector, ...]


@dataclass(frozen=True)
class ContractedSubset(LatticeSubset):
    """The result of contract, with the contraction that produced it."""

    provenance: Contraction | None = field(default=None, compare=False)


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


def contract(s: LatticeSubset, site: dict) -> LatticeSubset:
    """Apply the contraction at one entry of contraction_sites(s)."""
    if site not in contraction_sites(s):
        raise LatticeError(f"{site} is not a contraction site of the subset")
    vs, vst, col = site["s"], site["s_tilde"], site["basis"]
    vecs = list(s.vectors)
    # normalize so the merged pair has intersection +1 (a vertex flip,
    # which moves a negative intersection without changing the string);
    # the provenance records the normalized parent, which is the subset
    # the inverse expansion reproduces
    if dot(vecs[vs], vecs[vst]) == -1:
        vecs[vst] = tuple(-c for c in vecs[vst])
    parent = tuple(vecs)
    vecs[vs] = tuple(a + b for a, b in zip(vecs[vs], vecs[vst]))
    del vecs[vst]
    # dropping the column sheds v_t's coordinate there; the merged
    # pair's coordinates on it cancel
    out = classify_subset([v[:col] + v[col + 1 :] for v in vecs])
    if out.kind != s.kind:
        raise LatticeError(
            f"contraction changed kind {s.kind} -> {out.kind}; move was illegal"
        )
    return ContractedSubset(out.vectors, out.kind, out.string, Contraction(site, parent))


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
