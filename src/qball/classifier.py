"""Decision procedures: which bundles and surgeries bound rationally.

Torus bundles are classified by monodromy class.  Elliptic bundles
never bound a rational homology circle; parabolic ones bound exactly
when their trace is negative; a hyperbolic bundle bounds exactly when
its trace is positive and its coefficient string lies in the family
S2c.  For the chain-link surgeries Y(a, t) the decision reduces to
family membership of a and of its cyclic dual d:

* t = 0:   S2 membership of a or d certifies a ball, and a failed
  positive-side embedding for both refutes one;
* t = -1:  membership of a in S1 (or d in S1b-S1e) certifies a ball;
  for d in S1a the parity of the half-string numerator p decides the
  odd-order case (p odd obstructs, p even stays open); otherwise the
  negative-side embedding search obstructs or stays silent;
* t = +1:  the mirror of t = -1 with a and d exchanged;
* |t| >= 2: only one-directional rules apply: S2c membership of a or d
  certifies balls for all even t, and a failed embedding search for
  both a and d obstructs the whole parity class at once.

Everything is decided exactly; a verdict is "Bounds", "NotBounds" or
"Unknown" and carries the ordered list of rules that produced it.

Non-membership obstructions are never taken on faith: a NotBounds that
rests on "no embedding exists" is certified by actually running the
exhaustive lattice search on both the string and its dual.  When the
search finds an embedding for a non-member (this happens: the strings
(6,2,2,2,6,2,2,2), (3,3,3,3,3,3) and (2,4,2,4,2,4,2,4) all carry
negative cyclic subsets without lying in S1), the obstruction is
silent and the verdict is Unknown rather than an unsound NotBounds.

A braid-level view comes along for free: Y(a, t) is the double branched
cover of the closure of (s1 s2)^(3t) s1 s2^-(a_1-2) ... s1 s2^-(a_n-2),
and the homological checks can be read off a 2x2 representation of the
braid group evaluated at these words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as QQ
from math import gcd, isqrt

from .chainstring import (
    canonical_form,
    cyclic_dual,
    i_invariant,
    validate_chain,
)
from .contfrac import homology_order, is_square, monodromy_matrix, s1a_square_order
from .families import (
    S1_TAGS,
    in_family,
    tags_of,
)

BOUNDS = "Bounds"
NOT_BOUNDS = "NotBounds"
UNKNOWN = "Unknown"

# node budget for obstruction-certifying embedding searches
OBSTRUCTION_BUDGET = 10**7


class ClassifierError(ValueError):
    pass


@dataclass(frozen=True)
class Reason:
    rule: str
    detail: str

    def to_json(self) -> dict:
        return {"rule": self.rule, "detail": self.detail}


@dataclass(frozen=True)
class Verdict:
    status: str
    reasons: tuple[Reason, ...]

    def to_json(self) -> dict:
        return {"status": self.status, "reasons": [r.to_json() for r in self.reasons]}


def _verdict(status, *reasons):
    if status in (BOUNDS, NOT_BOUNDS) and not reasons:
        raise AssertionError("decided verdicts must carry a reason")
    return Verdict(status, tuple(reasons))


# ---------------------------------------------------------------------------
# monodromy classes


@dataclass(frozen=True)
class Elliptic:
    word: str  # one of S, -S, T^-1*S, -T^-1*S, (T^-1*S)^2, -(T^-1*S)^2


@dataclass(frozen=True)
class Parabolic:
    sign: int
    n: int


@dataclass(frozen=True)
class Hyperbolic:
    sign: int
    string: tuple[int, ...]

    def __post_init__(self):
        a = validate_chain(self.string)
        if max(a) < 3:
            raise ClassifierError(f"hyperbolic string {a} needs an entry >= 3")
        if self.sign not in (1, -1):
            raise ClassifierError(f"sign must be +-1, got {self.sign}")


MonodromyClass = Elliptic | Parabolic | Hyperbolic


def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _mat_neg(a):
    return ((-a[0][0], -a[0][1]), (-a[1][0], -a[1][1]))


_ID = ((1, 0), (0, 1))
_S = ((0, 1), (-1, 0))


def _t_pow(n):
    return ((1, n), (0, 1))


def string_matrix(a) -> tuple[tuple[int, int], tuple[int, int]]:
    """The monodromy representative T^-a_n S ... T^-a_1 S.

    This product order realizes [[p, q], [-s, -r]] with p/q and s/r the
    continued-fraction values of a and of a without its last entry.
    """
    return monodromy_matrix(a).matrix()


_ELLIPTIC_WORDS = {
    "S": _S,
    "-S": _mat_neg(_S),
    "T^-1*S": _mat_mul(_t_pow(-1), _S),
    "-T^-1*S": _mat_neg(_mat_mul(_t_pow(-1), _S)),
    "(T^-1*S)^2": _mat_mul(_mat_mul(_t_pow(-1), _S), _mat_mul(_t_pow(-1), _S)),
    "-(T^-1*S)^2": _mat_neg(_mat_mul(_mat_mul(_t_pow(-1), _S), _mat_mul(_t_pow(-1), _S))),
}


def _floor_quad(p: int, q: int, d: int) -> int:
    """floor((p + sqrt(d)) / q) for nonsquare d > 0, any q != 0."""
    f = isqrt(d)
    if q > 0:
        return (p + f) // q
    return -((p + f) // (-q)) - 1


class NormalFormNotFound(ClassifierError):
    pass


def normalize_monodromy(m) -> MonodromyClass:
    """Classify a determinant-1 integer matrix up to conjugation.

    Elliptic and parabolic classes are recognized directly; a hyperbolic
    matrix is reduced along the continued-fraction expansion of its
    attracting fixed point until the expansion cycles, which exhibits an
    explicit conjugator onto a power of the block product for the cycle
    word.  The conjugation is certified by exact matrix equality.
    """
    m = ((int(m[0][0]), int(m[0][1])), (int(m[1][0]), int(m[1][1])))
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det != 1:
        raise ClassifierError(f"matrix {m} has determinant {det}, need 1")
    tr = m[0][0] + m[1][1]

    if abs(tr) < 2:
        return _normalize_elliptic(m)
    if abs(tr) == 2:
        return _normalize_parabolic(m)

    sign = 1 if tr > 0 else -1
    mm = m if sign > 0 else _mat_neg(m)
    word, conj = _hyperbolic_cycle(mm)
    if min(word) < 2 or max(word) < 3:
        raise NormalFormNotFound(f"degenerate cycle word {word} for {m}")
    # certify by exact matrix equality: conj * mm * conj^-1 must be a
    # power of the block product of the cycle word
    inv = ((conj[1][1], -conj[0][1]), (-conj[1][0], conj[0][0]))
    got = _mat_mul(_mat_mul(conj, mm), inv)
    # the word has an entry >= 3, so the base has trace >= 3 and the
    # traces of its powers grow strictly: the walk stops
    base = string_matrix(word)
    acc, power = base, 1
    while acc != got:
        if acc[0][0] + acc[1][1] > got[0][0] + got[1][1]:
            raise NormalFormNotFound(f"cycle word {word} not certified for {m}")
        acc = _mat_mul(acc, base)
        power += 1
    return Hyperbolic(sign, canonical_form(word * power))


def _normalize_elliptic(m) -> Elliptic:
    # For each elliptic trace there are exactly two conjugacy classes,
    # separated by the sign of the definite binary form (c, d-a, -b)
    # attached to the fixed point; conjugation acts on the form by a
    # determinant-1 change of variable, which preserves that sign.
    tr = m[0][0] + m[1][1]
    c = m[1][0]
    if c == 0:
        raise NormalFormNotFound(f"trace {tr} matrix with c = 0 cannot be elliptic")
    negative_form = c < 0
    word = {
        (0, True): "S",
        (0, False): "-S",
        (1, True): "T^-1*S",
        (1, False): "-(T^-1*S)^2",
        (-1, True): "(T^-1*S)^2",
        (-1, False): "-T^-1*S",
    }[(tr, negative_form)]
    return Elliptic(word)


def _normalize_parabolic(m) -> Parabolic:
    sign = 1 if m[0][0] + m[1][1] == 2 else -1
    mm = m if sign > 0 else _mat_neg(m)
    alpha = mm[0][0] - 1
    beta = mm[0][1]
    gamma = mm[1][0]
    if beta == 0 and gamma == 0 and alpha == 0:
        return Parabolic(sign, 0)
    g = gcd(gcd(abs(alpha), abs(beta)), abs(gamma))
    n = g if (beta > 0 or (beta == 0 and gamma < 0)) else -g
    return Parabolic(sign, n)


def _hyperbolic_cycle(m):
    """Cycle of the repelling fixed point's expansion, with conjugator.

    The expansion step x -> 1/(digit - x) conjugates the matrix by
    S*T^-digit; once the exact state (p, q) of the quadratic irrational
    (p + sqrt(disc))/q repeats, the digits in between form the cycle
    word w and the composed conjugator C satisfies
    C m C^-1 = string_matrix(w)^k.  Returns (w, C).
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
# torus bundles


def classify_torus_bundle(mc: MonodromyClass) -> Verdict:
    """Does the torus bundle bound a rational homology circle?

    A positive hyperbolic bundle is decided by S2c membership alone; S2c
    has no side condition, so the verdict takes no mode.
    """
    if isinstance(mc, Elliptic):
        if mc.word not in _ELLIPTIC_WORDS:
            raise ClassifierError(f"unknown elliptic word {mc.word!r}")
        return _verdict(
            NOT_BOUNDS,
            Reason("elliptic", f"no elliptic bundle bounds (word {mc.word})"),
        )
    if isinstance(mc, Parabolic):
        if mc.sign < 0:
            return _verdict(
                BOUNDS,
                Reason("parabolic-negative", f"-T^{mc.n} bounds for every twist count"),
            )
        return _verdict(
            NOT_BOUNDS,
            Reason("parabolic-positive", f"T^{mc.n} has b1 = 2, so it cannot bound"),
        )
    if isinstance(mc, Hyperbolic):
        if mc.sign < 0:
            return _verdict(
                NOT_BOUNDS,
                Reason("hyperbolic-negative", "no negative hyperbolic bundle bounds"),
            )
        if in_family(mc.string, "S2c"):
            return _verdict(
                BOUNDS,
                Reason("hyperbolic-S2c", f"{mc.string} lies in S2c"),
            )
        return _verdict(
            NOT_BOUNDS,
            Reason(
                "hyperbolic-not-S2c",
                f"{mc.string} is outside S2c, the only bounding positive family",
            ),
        )
    raise ClassifierError(f"not a monodromy class: {mc!r}")


# ---------------------------------------------------------------------------
# chain-link surgeries


def _embedding_exists(a, kind) -> bool | None:
    """Memoized existence of a cyclic subset; None if out of budget."""
    from .embedsearch import BUDGET_EXCEEDED, find_embedding

    result = _embedding_cache.get((a, kind))
    if result is None:
        got = find_embedding(a, kind, budget=OBSTRUCTION_BUDGET)
        result = None if got.outcome == BUDGET_EXCEEDED else got.found
        _embedding_cache[(a, kind)] = result
    return result


_embedding_cache: dict = {}


def _rank_one_embeds(a1: int, kind) -> bool:
    # the length-1 handlebody is a single 2-handle of square -(a1 +- 2);
    # it embeds in a diagonal unimodular lattice iff that is a square
    offset = 2 if kind == "negative_cyclic" else -2
    return is_square(a1 + offset)


def _obstructed(a, d, kind) -> Verdict | None:
    """Certified non-existence verdict, or None when the search is silent.

    A surgery that bounds forces an embedding of the definite filling
    built on the string or on its dual (diagonalization), so two
    exhausted searches prove NotBounds outright.  A found embedding or
    an exhausted budget cannot conclude.
    """
    side = "negative" if kind == "negative_cyclic" else "positive"
    got_a = (
        _embedding_exists(canonical_form(a), kind)
        if len(a) >= 2
        else _rank_one_embeds(a[0], kind)
    )
    got_d = (
        _embedding_exists(canonical_form(d), kind)
        if len(d) >= 2
        else _rank_one_embeds(d[0], kind)
    )
    if got_a is False and got_d is False:
        return _verdict(
            NOT_BOUNDS,
            Reason(
                f"{side}-embedding-exhausted",
                f"neither {tuple(a)} nor its dual {tuple(d)} admits the "
                f"{side}-side lattice embedding (non-existence is exact)",
            ),
        )
    if got_a is None or got_d is None:
        return _verdict(
            UNKNOWN,
            Reason(
                f"{side}-embedding-budget",
                "the obstruction search exceeded its node budget",
            ),
        )
    return None


def _odd_verdict(a, d, mode) -> Verdict:
    """Shared logic for t = -1 (and t = +1 via the mirror)."""
    tags_a = tags_of(a, mode)
    tags_d = tags_of(d, mode)
    if tags_a & set(S1_TAGS):
        fam = sorted(tags_a & set(S1_TAGS))[0]
        return _verdict(
            BOUNDS, Reason("odd-membership", f"string lies in {fam}")
        )
    if tags_d & {"S1b", "S1c", "S1d", "S1e"}:
        fam = sorted(tags_d & {"S1b", "S1c", "S1d", "S1e"})[0]
        return _verdict(
            BOUNDS,
            Reason("odd-dual-membership", f"cyclic dual {d} lies in {fam}"),
        )
    if "S1a" in tags_d:
        p = isqrt(s1a_square_order(d))  # the half-string numerator
        if p % 2 == 1:
            return _verdict(
                NOT_BOUNDS,
                Reason(
                    "dual-S1a-odd-order",
                    f"dual in S1a with odd half-string numerator p = {p}: "
                    "the correction term of the unique self-conjugate "
                    "structure is nonzero",
                ),
            )
        return _verdict(
            UNKNOWN,
            Reason(
                "dual-S1a-even-order",
                f"dual in S1a with even half-string numerator p = {p}; "
                "no statement decides this case",
            ),
        )
    obstructed = _obstructed(a, d, "negative_cyclic")
    if obstructed is not None:
        return obstructed
    return _verdict(
        UNKNOWN,
        Reason(
            "odd-embedding-found",
            "a negative cyclic subset exists although the string is "
            "outside S1, so the lattice obstruction is silent and no "
            "construction is known",
        ),
    )


def _annotate_mode_boundary(a, t, mode, verdict) -> Verdict:
    if mode != "strict":
        return verdict
    relaxed = _classify_surgery(a, t, "relaxed")
    if relaxed.status != verdict.status:
        note = Reason(
            "mode-boundary",
            f"relaxed membership (side condition k+l >= 2) gives "
            f"{relaxed.status}; the side condition as written excludes it",
        )
        return Verdict(UNKNOWN, verdict.reasons + (note,) + relaxed.reasons)
    return verdict


def classify_surgery(a, t: int, mode: str = "strict") -> Verdict:
    """Does the chain-link surgery Y(a, t) bound a rational ball?"""
    verdict = _classify_surgery(a, t, mode)
    return _annotate_mode_boundary(a, t, mode, verdict)


def _classify_surgery(a, t: int, mode: str) -> Verdict:
    a = validate_chain(a)

    if max(a) < 3:
        # parabolic case: the bundle -T^n bounds, so every odd twist
        # bounds; the untwisted surgery never does
        if t % 2 == 1:
            return _verdict(
                BOUNDS,
                Reason("all-two-odd", "odd surgeries on the all-2 chain bound"),
            )
        if t == 0:
            return _verdict(
                NOT_BOUNDS,
                Reason("all-two-untwisted", "the untwisted all-2 surgery never bounds"),
            )
        return _verdict(
            UNKNOWN,
            Reason("all-two-even", f"no rule covers even twisting t = {t} here"),
        )

    d = cyclic_dual(a)

    if len(a) == 1 and t in (0, -1):
        m = a[0]
        if t == 0:
            if m in (3, 6):
                return _verdict(
                    BOUNDS,
                    Reason("lens", f"the surgery is the lens space L({m - 2},1)"),
                )
            return _verdict(
                NOT_BOUNDS,
                Reason(
                    "lens",
                    f"the surgery is L({m - 2},1); only L(1,1) and L(4,1) bound",
                ),
            )
        return _verdict(
            NOT_BOUNDS,
            Reason("lens", f"the surgery is L({m + 2},1) with {m + 2} >= 5"),
        )

    if t == 0:
        tags_a = tags_of(a, mode)
        tags_d = tags_of(d, mode)
        s2 = {"S2a", "S2b", "S2c", "S2d", "S2e"}
        if tags_a & s2:
            fam = sorted(tags_a & s2)[0]
            return _verdict(BOUNDS, Reason("even-membership", f"string lies in {fam}"))
        if tags_d & s2:
            fam = sorted(tags_d & s2)[0]
            return _verdict(
                BOUNDS, Reason("even-dual-membership", f"cyclic dual {d} lies in {fam}")
            )
        obstructed = _obstructed(a, d, "positive_cyclic")
        if obstructed is not None:
            return obstructed
        return _verdict(
            UNKNOWN,
            Reason(
                "even-embedding-found",
                "a positive cyclic subset exists although the string is "
                "outside S2, so the lattice obstruction is silent and no "
                "construction is known",
            ),
        )

    if t == -1:
        return _odd_verdict(a, d, mode)
    if t == 1:
        # reversing orientation turns Y(a, 1) into Y(d, -1)
        v = _classify_surgery(d, -1, mode)
        return Verdict(
            v.status,
            (Reason("mirror", f"orientation reversal to Y({d}, -1)"),) + v.reasons,
        )

    # |t| >= 2: one-directional rules only.  The intersection form of the
    # bounding handlebody depends only on the parity of t, so exhausted
    # embedding searches obstruct the whole parity class at once.
    tags_a = tags_of(a, mode)
    tags_d = tags_of(d, mode)
    if t % 2 == 0:
        if "S2c" in tags_a or "S2c" in tags_d:
            return _verdict(
                BOUNDS,
                Reason(
                    "even-S2c-all-t",
                    "an S2c string bounds for every even twisting",
                ),
            )
        obstructed = _obstructed(a, d, "positive_cyclic")
        if obstructed is not None:
            return obstructed
        return _verdict(
            UNKNOWN,
            Reason(
                "even-open",
                f"a positive embedding exists, and S2 membership outside "
                f"S2c decides only t = 0, not t = {t}",
            ),
        )
    obstructed = _obstructed(a, d, "negative_cyclic")
    if obstructed is not None:
        return obstructed
    return _verdict(
        UNKNOWN,
        Reason(
            "odd-open",
            f"a negative embedding exists, and S1 membership decides only "
            f"t = +-1, not t = {t}",
        ),
    )


# ---------------------------------------------------------------------------
# Heegaard Floer data


def reduced_floer_rank(t: int) -> int:
    """Rank of the reduced plus-flavor group at the self-conjugate
    structure; depends only on the twisting."""
    if t % 2 == 0:
        return abs(t) // 2
    m = (t - 1) // 2
    return m if m >= 0 else -(m + 1)


def correction_term(a, t: int) -> QQ:
    """d-invariant of the self-conjugate structure for odd twisting."""
    if t % 2 == 0:
        raise ClassifierError(f"correction term formula needs odd t, got {t}")
    a = validate_chain(a)
    if max(a) < 3:
        raise ClassifierError("correction term formula needs a hyperbolic string")
    base = QQ(1) if t >= 1 else QQ(-1)
    return base - QQ(i_invariant(a), 4)


def grading_shift(a) -> QQ:
    """The overall grading shift (3n - sum a_i)/4 = -I(a)/4."""
    return -QQ(i_invariant(validate_chain(a)), 4)


# ---------------------------------------------------------------------------
# braid words and the double cover


@dataclass(frozen=True)
class BraidWord:
    """Letters (generator, exponent sign) over the two generators 1, 2."""

    letters: tuple[tuple[int, int], ...]

    def __str__(self):
        return " ".join(f"s{g}" if e > 0 else f"s{g}^-1" for g, e in self.letters)

    def to_json(self) -> dict:
        return {"letters": [[g, e] for g, e in self.letters], "word": str(self)}


def braid_word(a, t: int) -> BraidWord:
    """(s1 s2)^(3t) s1 s2^-(a_1-2) ... s1 s2^-(a_n-2)."""
    a = validate_chain(a)
    letters = []
    if t >= 0:
        letters += [(1, 1), (2, 1)] * (3 * t)
    else:
        letters += [(2, -1), (1, -1)] * (-3 * t)
    for x in a:
        letters.append((1, 1))
        letters += [(2, -1)] * (x - 2)
    return BraidWord(tuple(letters))


_BURAU = {
    (1, 1): ((1, 1), (0, 1)),
    (1, -1): ((1, -1), (0, 1)),
    (2, 1): ((1, 0), (-1, 1)),
    (2, -1): ((1, 0), (1, 1)),
}


def burau_matrix(word: BraidWord):
    m = _ID
    for letter in word.letters:
        m = _mat_mul(m, _BURAU[letter])
    return m


def _burau_self_test():
    m = _ID
    for letter in ((1, 1), (2, 1)) * 3:
        m = _mat_mul(m, _BURAU[letter])
    if m != ((-1, 0), (0, -1)):
        raise AssertionError("(s1 s2)^3 must map to -Id under the representation")


_burau_self_test()


def burau_trace_check(a, t: int) -> tuple[int, bool]:
    """Trace of the braid word's 2x2 image against the monodromy trace.

    The two agree up to sign for every twisting.  For t in {0, -1} the
    branched-cover homology order equals |trace - 2| (the order of the
    cover is the determinant of the branch link), which is checked
    against the continued-fraction formula and raises on disagreement.
    """
    a = validate_chain(a)
    m = burau_matrix(braid_word(a, t))
    trace = m[0][0] + m[1][1]
    bundle_trace = monodromy_matrix(a).trace
    if t in (0, -1) and max(a) >= 3:
        parity = "even" if t == 0 else "odd"
        if abs(trace - 2) != homology_order(a, parity):
            raise AssertionError(
                f"braid determinant {abs(trace - 2)} disagrees with the "
                f"homology order of {a} at t = {t}"
            )
    return trace, abs(trace) == abs(bundle_trace)


def classify_braid_cover(a, t: int, mode: str = "strict") -> Verdict:
    """The surgery verdict restated for the branched double cover."""
    inner = classify_surgery(a, t, mode)
    word = braid_word(a, t)
    prefix = Reason(
        "double-cover",
        f"the surgery is the double cover of S^3 branched over the closure of {word}",
    )
    return Verdict(inner.status, (prefix,) + inner.reasons)
