"""Decision procedures: which bundles and surgeries bound rationally.

Torus bundles are classified by monodromy class.  Elliptic bundles
never bound a rational homology circle; parabolic ones bound exactly
when their trace is negative; a hyperbolic bundle bounds exactly when
its trace is positive and its coefficient string lies in the family
S2c.  For the chain-link surgeries Y(a, t) the decision reduces to
family membership of a and of its cyclic dual d.  The parity of t picks
the family and the side of the definite filling whose lattice embedding
can obstruct:

    t       family   filling
    even    S2       positive
    odd     S1       negative

and one rule sequence serves both parities:

1. a single entry at t in {0, -1} is a lens space and decided as such;
   t = +1 is the mirror of t = -1 with a and d exchanged;
2. at t in {0, -1}, membership of a, then of d, certifies a ball.  A
   dual in S1a is decided instead by the parity of the half-string
   numerator p, with p^2 = |H1(Y(a, -1))|: p odd obstructs, p even
   stays open;
3. at even |t| >= 2, S2c membership of a or d certifies a ball;
4. exhausted embedding searches for both a and d obstruct, for the
   whole parity class at once;
5. otherwise the verdict is a silent Unknown: an embedding exists (or
   membership decides only t in {0, +-1}) and no construction is known.

Everything is decided exactly; a verdict is "Bounds", "NotBounds" or
"Unknown" and carries the ordered list of rules that produced it.

a and d are each profiled once per process, for all twists and both
modes: a module memo files one embedsearch.StringProfile per string
orbit (the sweep rows' tag sets and cyclic searches), linked to its
dual's.  The decision reads only the tag sets, and the strict-mode
boundary comes from comparing the strict and the relaxed tag sets of
that one scan.

Non-membership obstructions are never taken on faith: a NotBounds that
rests on "no embedding exists" is certified by actually running the
exhaustive lattice search on both the string and its dual.  When the
search finds an embedding for a non-member (this happens: the strings
(6,2,2,2,6,2,2,2), (3,3,3,3,3,3) and (2,4,2,4,2,4,2,4) all carry
negative cyclic subsets without lying in S1), the obstruction is
silent and the verdict is Unknown rather than an unsound NotBounds.

The one piece of Heegaard Floer data kept is correction_term, the
d-invariant of the self-conjugate structure at odd twisting, +-1 - I(a)/4
with the sign of t: the quantity the dual-S1a-odd-order reason cites.

A braid-level view comes along for free: Y(a, t) is the double branched
cover of the closure of (s1 s2)^(3t) s1 s2^-(a_1-2) ... s1 s2^-(a_n-2),
and the homological checks can be read off a 2x2 representation of the
braid group evaluated at these words.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from operator import index

from .chainstring import (
    canonical_form,
    cyclic_dual,
    i_invariant,
    validate_chain,
)
from .contfrac import homology_order, monodromy_matrix
from .embedsearch import StringProfile
from .families import S1_TAGS, S2_TAGS, _check_mode, in_family
from .lattice import NEGATIVE, POSITIVE

BOUNDS = "Bounds"
NOT_BOUNDS = "NotBounds"
UNKNOWN = "Unknown"


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


class NormalFormNotFound(ClassifierError):
    pass


def normalize_monodromy(m) -> MonodromyClass:
    """Classify a determinant-1 integer matrix up to conjugation.

    Elliptic and parabolic classes are recognized directly; a hyperbolic
    matrix is reduced along the minus continued fraction of its repelling
    fixed point until the expansion cycles, which exhibits an explicit
    conjugator onto a power B^k of the block product B of the cycle word.
    The walk covers the pre-period and one period, so its steps grow with
    the logarithm of the entries, not with k, and need no cap.  k is read
    off the traces of the powers of B, and the conjugation is certified
    by exact equality with B^k, built by repeated squaring.  An entry
    that is not an integer raises TypeError instead of being truncated.
    """
    m = ((index(m[0][0]), index(m[0][1])), (index(m[1][0]), index(m[1][1])))
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
    # the word has an entry >= 3, so the base has trace >= 3 and the
    # traces t_j of its powers, t_{j+1} = tr(B) t_j - t_{j-1} from
    # t_0 = 2, grow strictly: the first t_k >= |tr| names the one
    # candidate power
    base = string_matrix(word)
    tb = base[0][0] + base[1][1]
    prev, cur, power = 2, tb, 1
    while cur < abs(tr):
        prev, cur, power = cur, tb * cur - prev, power + 1
    # certify by exact matrix equality: conj * mm * conj^-1 must be B^k
    inv = ((conj[1][1], -conj[0][1]), (-conj[1][0], conj[0][0]))
    got = _mat_mul(_mat_mul(conj, mm), inv)
    acc = base
    for bit in bin(power)[3:]:  # the bits below the leading one
        acc = _mat_mul(acc, acc)
        if bit == "1":
            acc = _mat_mul(acc, base)
    if acc != got:
        raise NormalFormNotFound(f"cycle word {word} not certified for {m}")
    # canonical_form(word * power) is canonical_form(word) * power: the
    # rotations and the reversal of w^k are the k-th powers of those of
    # w, and for |u| = |v| the first difference of u^k and v^k lies in
    # the first copy, so u^k < v^k exactly when u < v
    return Hyperbolic(sign, canonical_form(word) * power)


def _normalize_elliptic(m) -> Elliptic:
    # For each elliptic trace there are exactly two conjugacy classes,
    # separated by the sign of the definite binary form (c, d-a, -b)
    # attached to the fixed point; conjugation acts on the form by a
    # determinant-1 change of variable, which preserves that sign.
    # The six words hold both classes of each trace, so m's class is the
    # word with its trace and its sign of c, the form's leading entry.
    # c != 0: with determinant 1, c = 0 would force a = d = +-1, trace +-2
    tr = m[0][0] + m[1][1]
    return Elliptic(
        next(
            word
            for word, w in _ELLIPTIC_WORDS.items()
            if w[0][0] + w[1][1] == tr and (w[1][0] < 0) == (m[1][0] < 0)
        )
    )


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
    S*T^-digit.  The digit is 2 exactly when 1 < x < 2, and then
    y = 1/(x - 1) steps to y - 1, so a run of floor(y) 2s is taken in one
    step, conjugating by (S*T^-2)^k = [[1-k, k], [-k, 1+k]].  The steps
    therefore follow the ordinary continued fraction of the fixed point,
    logarithmic in the entries, and reduction theory makes the walk
    cycle without a cap.  The loop keeps only the state and the runs.
    States x = (p + sqrt(disc))/q are recorded only before a digit >= 3,
    which every period has; once one repeats, the digits since its first
    visit form the cycle word w, and replaying the runs before that visit
    builds the conjugator C with C m C^-1 = string_matrix(w)^k.  Returns
    (w, C).
    """
    a, c, d = m[0][0], m[1][0], m[1][1]
    # c != 0: with determinant 1, c = 0 would force a = d = +-1, trace +-2
    disc = (a + d) ** 2 - 4
    f = isqrt(disc)
    p, q = d - a, -2 * c  # the repelling root ((a-d) - sqrt(disc))/(2c)
    seen = {}  # state -> index into runs
    runs = []  # (digit, count)
    while True:
        # floor((p + sqrt(disc))/q) is (p + f)//q for q > 0, (p + f + 1)//q
        # for q < 0, as sqrt(disc) lies strictly between f and f + 1
        floor_x = (p + f + (q < 0)) // q
        if floor_x == 1:
            # y = 1/(x - 1) = (py + sqrt(disc))/qy; the division is exact
            # because q divides p^2 - disc
            py, qy = q - p, (disc - (p - q) ** 2) // q
            k = (py + f + (qy < 0)) // qy
            # x after the run is 1 + 1/(y - k) > 2, with y - k = (r + sqrt(disc))/qy
            r = py - k * qy
            q = (disc - r * r) // qy
            p = q - r
            runs.append((2, k))
            continue
        if floor_x >= 2:
            if (p, q) in seen:
                break
            seen[p, q] = len(runs)
        digit = floor_x + 1  # ceil; the value is irrational
        runs.append((digit, 1))
        p2 = digit * q - p
        p, q = p2, (p2 * p2 - disc) // q
    start = seen[p, q]
    word = tuple(x for x, n in runs[start:] for _ in range(n))
    # the pre-period conjugator [[w, x], [y, z]], left-multiplied step by
    # step by S*T^-digit = [[0, 1], [-1, digit]] or a run's
    # (S*T^-2)^k = [[1-k, k], [-k, 1+k]]
    w, x, y, z = 1, 0, 0, 1
    for digit, n in runs[:start]:
        if digit == 2:
            dy, dz = n * (y - w), n * (z - x)
            w, x, y, z = w + dy, x + dz, y + dy, z + dz
        else:
            w, x, y, z = y, z, digit * y - w, digit * z - x
    # undo the final S
    return word, ((-y, -z), (w, x))


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


def _profiles(a) -> tuple[StringProfile, StringProfile]:
    """The memoized profiles of a (entries >= 3 somewhere), filed under a
    as given and canonical, and of its cyclic dual d, which is canonical
    and whose dual is a's orbit, so the link is made once both ways."""
    rec = _string_cache.get(a)
    if rec is None:
        c = canonical_form(a)
        rec = _string_cache.get(c)
        if rec is None:
            rec = _string_cache[c] = StringProfile(c)
        _string_cache[a] = rec
    if rec.dual is None:
        d = cyclic_dual(rec.string)
        rec_d = _string_cache.get(d)
        if rec_d is None:
            rec_d = _string_cache[d] = StringProfile(d)
        rec.dual, rec_d.dual = rec_d, rec
    return rec, rec.dual


# string -> StringProfile, for the life of the process: every twist and
# both modes read one profile per string orbit
_string_cache: dict = {}


def _obstructed(a, rec_a, rec_d, side, kind) -> Verdict | None:
    """Certified non-existence verdict, or None when the search is silent.

    A surgery that bounds forces an embedding of the definite filling
    built on the string or on its dual (diagonalization), so two
    exhausted searches of the side's cyclic kind prove NotBounds
    outright.  A found embedding cannot conclude.
    """
    if not rec_a.search(kind).found and not rec_d.search(kind).found:
        return _verdict(
            NOT_BOUNDS,
            Reason(
                f"{side}-embedding-exhausted",
                f"neither {tuple(a)} nor its dual {rec_d.string} admits the "
                f"{side}-side lattice embedding (non-existence is exact)",
            ),
        )
    return None


def classify_surgery(a, t: int, mode: str = "strict") -> Verdict:
    """Does the chain-link surgery Y(a, t) bound a rational ball?

    Strict mode decides again, from the relaxed tag sets, only when the
    two modes' sets differ; a different status marks a mode boundary.
    """
    _check_mode(mode)
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

    rec_a, rec_d = _profiles(a)
    if mode == "relaxed":
        return _decide(a, t, rec_a, rec_d, "relaxed")
    verdict = _decide(a, t, rec_a, rec_d, "strict")
    if rec_a.strict == rec_a.relaxed and rec_d.strict == rec_d.relaxed:
        return verdict
    relaxed = _decide(a, t, rec_a, rec_d, "relaxed")
    if relaxed.status == verdict.status:
        return verdict
    note = Reason(
        "mode-boundary",
        f"relaxed membership (side condition k+l >= 2) gives "
        f"{relaxed.status}; the side condition as written excludes it",
    )
    return Verdict(UNKNOWN, verdict.reasons + (note,) + relaxed.reasons)


def _decide(a, t: int, rec_a, rec_d, mode) -> Verdict:
    """The verdict for a hyperbolic Y(a, t) from the profiles of a and of
    its cyclic dual d, reading the tag sets of mode."""
    d = rec_d.string
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
    if t == 1:
        # reversing orientation turns Y(a, 1) into Y(d, -1); the dual of
        # d is a up to rotation and reversal, so a's profile serves it
        v = _decide(d, -1, rec_d, rec_a, mode)
        return Verdict(
            v.status,
            (Reason("mirror", f"orientation reversal to Y({d}, -1)"),) + v.reasons,
        )

    if t % 2 == 0:
        parity, family, side, kind = "even", S2_TAGS, "positive", POSITIVE
    else:
        parity, family, side, kind = "odd", S1_TAGS, "negative", NEGATIVE
    tags_a, tags_d = getattr(rec_a, mode), getattr(rec_d, mode)  # .strict or .relaxed
    if t in (0, -1):
        found = tags_a.intersection(family)
        if found:
            return _verdict(
                BOUNDS, Reason(f"{parity}-membership", f"string lies in {min(found)}")
            )
        # a dual in S1a is left to the half-string numerator rule below
        found = tags_d.intersection(family) - {"S1a"}
        if found:
            return _verdict(
                BOUNDS,
                Reason(f"{parity}-dual-membership", f"cyclic dual {d} lies in {min(found)}"),
            )
        if t == -1 and "S1a" in tags_d:
            # the half-string numerator: duals share |H1|, which is p^2
            p = isqrt(homology_order(a, "odd"))
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
    elif parity == "even" and ("S2c" in tags_a or "S2c" in tags_d):
        return _verdict(
            BOUNDS,
            Reason("even-S2c-all-t", "an S2c string bounds for every even twisting"),
        )

    # The intersection form of the bounding handlebody depends only on the
    # parity of t, so exhausted embedding searches obstruct the whole
    # parity class at once.
    obstructed = _obstructed(a, rec_a, rec_d, side, kind)
    if obstructed is not None:
        return obstructed
    name = family[0][:2]  # "S2" or "S1"
    if t in (0, -1):
        return _verdict(
            UNKNOWN,
            Reason(
                f"{parity}-embedding-found",
                f"a {side} cyclic subset exists although the string is "
                f"outside {name}, so the lattice obstruction is silent and no "
                "construction is known",
            ),
        )
    decides = "outside S2c decides only t = 0" if parity == "even" else "decides only t = +-1"
    return _verdict(
        UNKNOWN,
        Reason(
            f"{parity}-open",
            f"a {side} embedding exists, and {name} membership {decides}, not t = {t}",
        ),
    )


# ---------------------------------------------------------------------------
# Heegaard Floer data


def correction_term(a, t: int):
    """d-invariant of the self-conjugate structure for odd twisting, as a
    Fraction."""
    from fractions import Fraction as QQ  # costs every import qball a few ms

    if t % 2 == 0:
        raise ClassifierError(f"correction term formula needs odd t, got {t}")
    a = validate_chain(a)
    if max(a) < 3:
        raise ClassifierError("correction term formula needs a hyperbolic string")
    base = QQ(1) if t >= 1 else QQ(-1)
    return base - QQ(i_invariant(a), 4)


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
