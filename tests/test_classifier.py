"""Bounding verdicts, monodromy normal forms, and the 3-braid view."""

import math
import random
import re
from collections import Counter
from fractions import Fraction as QQ
from math import isqrt

import pytest

from qball import classifier
from qball.chainstring import canonical_form, cyclic_dual, reverse
from qball.classifier import (
    BOUNDS,
    NOT_BOUNDS,
    UNKNOWN,
    ClassifierError,
    Elliptic,
    Hyperbolic,
    NormalFormNotFound,
    Parabolic,
    braid_word,
    burau_matrix,
    burau_trace_check,
    classify_braid_cover,
    classify_surgery,
    classify_torus_bundle,
    correction_term,
    _hyperbolic_cycle,
    normalize_monodromy,
    string_matrix,
)
from qball.contfrac import homology_order, is_square
from qball.embedsearch import (
    DET_NONSQUARE,
    EXHAUSTED,
    NO_METABOLIZER,
    UNIMODULAR_RANK,
    find_embedding,
    gram_order,
)
from qball.families import enumerate_strings, mode_tag_sets, tags_of
from qball.lattice import NEGATIVE, POSITIVE
from conftest import hyperbolic_cycle_digitwise, random_string, s1a_square_order
from oracles import rotate

_ID = ((1, 0), (0, 1))


def mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat_neg(a):
    return ((-a[0][0], -a[0][1]), (-a[1][0], -a[1][1]))


def conjugate(m, c):
    ci = ((c[1][1], -c[0][1]), (-c[1][0], c[0][0]))
    return mat_mul(mat_mul(c, m), ci)


def random_conjugator(rng, length=8):
    t = ((1, 1), (0, 1))
    ti = ((1, -1), (0, 1))
    s = ((0, 1), (-1, 0))
    m = _ID
    for _ in range(rng.randrange(0, length)):
        m = mat_mul(m, rng.choice([t, ti, s]))
    return m


# ---------------------------------------------------------------------------
# bundles


def test_bundle_verdicts():
    for word in ("S", "-S", "T^-1*S", "-T^-1*S", "(T^-1*S)^2", "-(T^-1*S)^2"):
        assert classify_torus_bundle(Elliptic(word)).status == NOT_BOUNDS
    for n in range(-3, 4):
        assert classify_torus_bundle(Parabolic(-1, n)).status == BOUNDS
        assert classify_torus_bundle(Parabolic(+1, n)).status == NOT_BOUNDS
    assert classify_torus_bundle(Hyperbolic(1, (5, 3, 2, 2, 3))).status == BOUNDS
    assert classify_torus_bundle(Hyperbolic(1, (3, 2, 2))).status == NOT_BOUNDS
    assert classify_torus_bundle(Hyperbolic(-1, (5, 3, 2, 2, 3))).status == NOT_BOUNDS
    assert classify_torus_bundle(Hyperbolic(-1, (3,))).status == NOT_BOUNDS


def test_hyperbolic_class_validation():
    with pytest.raises(ClassifierError):
        Hyperbolic(1, (2, 2, 2))
    with pytest.raises(ClassifierError):
        Hyperbolic(2, (3,))


def test_normalize_golden():
    assert normalize_monodromy(((5, 2), (-3, -1))) == Hyperbolic(1, canonical_form((3, 2)))
    assert normalize_monodromy(((0, 1), (-1, 0))) == Elliptic("S")
    assert normalize_monodromy(((0, -1), (1, 0))) == Elliptic("-S")
    assert normalize_monodromy(((1, 1), (-1, 0))) == Elliptic("T^-1*S")
    assert normalize_monodromy(((0, 1), (-1, -1))) == Elliptic("(T^-1*S)^2")
    assert normalize_monodromy(mat_neg(((1, 5), (0, 1)))) == Parabolic(-1, 5)
    assert normalize_monodromy(((1, -4), (0, 1))) == Parabolic(1, -4)
    assert normalize_monodromy(_ID) == Parabolic(1, 0)
    assert normalize_monodromy(mat_neg(_ID)) == Parabolic(-1, 0)


def test_normalize_rejects_bad_determinant():
    with pytest.raises(ClassifierError):
        normalize_monodromy(((2, 0), (0, 1)))


def test_normalize_rejects_non_integral_entries():
    # truncating these would read them as the parabolic identity and the
    # hyperbolic ((2, 1), (1, 1)); a float entry is refused instead
    for m in (((1.9, 0), (0, 1.2)), ((2.0, 1), (1, 1.0))):
        with pytest.raises(TypeError):
            normalize_monodromy(m)


def test_normalize_recovers_random_conjugates(rng):
    for _ in range(500):
        a = random_string(rng, max_len=6, max_entry=7)
        sign = rng.choice([1, -1])
        m = string_matrix(a)
        if sign < 0:
            m = mat_neg(m)
        got = normalize_monodromy(conjugate(m, random_conjugator(rng)))
        assert got == Hyperbolic(sign, canonical_form(a)), (a, sign, got)


def test_normalize_power_strings():
    for base in [(3,), (3, 2), (4, 2, 3)]:
        for p in (2, 3):
            a = base * p
            got = normalize_monodromy(string_matrix(a))
            assert got == Hyperbolic(1, canonical_form(a))


def test_normalize_high_powers():
    # no fixed cap on the exponent: the walk covers one period whatever
    # the power, and the power is read off the strictly growing traces
    for base in [(3,), (2, 4)]:
        m = _ID
        for p in range(1, 201):
            m = mat_mul(m, string_matrix(base))
            for sign in (1, -1):
                got = normalize_monodromy(m if sign > 0 else mat_neg(m))
                assert got == Hyperbolic(sign, canonical_form(base * p)), (base, p, sign)
    for base, p in [((3,), 3000), ((2, 4), 1000), ((2, 2, 3, 5, 3), 400)]:
        m = _ID
        for _ in range(p):
            m = mat_mul(m, string_matrix(base))
        for sign in (1, -1):
            got = normalize_monodromy(m if sign > 0 else mat_neg(m))
            assert got == Hyperbolic(sign, canonical_form(base * p)), (base, p, sign)


def test_normalize_refuses_a_wrong_conjugator(monkeypatch):
    # the cycle word alone certifies nothing: a conjugator that does not
    # carry the matrix onto a power of the word's block product must
    # raise, even when the word, and so the trace, is right
    t = ((1, 1), (0, 1))
    for a, p in [((3, 2), 1), ((2, 4), 5), ((5, 3, 2, 2, 3), 2)]:
        m = conjugate(string_matrix(a * p), ((2, 1), (1, 1)))
        word, conj = _hyperbolic_cycle(m)
        assert normalize_monodromy(m) == Hyperbolic(1, canonical_form(a * p))
        for wrong in (_ID, mat_mul(conj, t), mat_mul(t, conj)):
            monkeypatch.setattr(classifier, "_hyperbolic_cycle", lambda _m, w=word, c=wrong: (w, c))
            with pytest.raises(NormalFormNotFound):
                normalize_monodromy(m)
            monkeypatch.undo()


def exponent_conjugator(rng, max_exp, length=6):
    """A random word of up to `length` letters S and T^e, with |e| on a
    quarter-decade grid up to max_exp."""
    steps = round(4 * math.log10(max_exp))
    s = ((0, 1), (-1, 0))
    m = _ID
    for _ in range(rng.randrange(0, length + 1)):
        if rng.random() < 0.5:
            m = mat_mul(m, s)
        else:
            e = rng.choice([1, -1]) * round(10 ** (rng.randrange(steps + 1) / 4))
            m = mat_mul(m, ((1, e), (0, 1)))
    return m


def certified_power(conj, m, word):
    """The k >= 1 with conj m conj^-1 = string_matrix(word)^k, or None."""
    got = conjugate(m, conj)
    base = string_matrix(word)
    acc, k = base, 1
    while acc != got:
        if acc[0][0] + acc[1][1] > got[0][0] + got[1][1]:
            return None
        acc, k = mat_mul(acc, base), k + 1
    return k


def test_run_walk_agrees_with_digitwise_walk():
    # taking each run of 2s in one step must give the cycle and a valid
    # conjugator wherever the one-digit-per-step oracle still runs
    rng = random.Random(16)
    for _ in range(300):
        a = random_string(rng, max_len=6, max_entry=7)
        p = rng.randrange(1, 6)
        sign = rng.choice([1, -1])
        mm = conjugate(string_matrix(a * p), exponent_conjugator(rng, 10**3))
        m = mm if sign > 0 else mat_neg(mm)
        word, conj = _hyperbolic_cycle(mm)
        slow_word, slow_conj = hyperbolic_cycle_digitwise(mm)
        assert canonical_form(word) == canonical_form(slow_word), (a, p, m)
        assert certified_power(conj, mm, word) is not None, (a, p, m)
        assert certified_power(slow_conj, mm, slow_word) is not None, (a, p, m)
        assert normalize_monodromy(m) == Hyperbolic(sign, canonical_form(a * p))


def test_normalize_huge_conjugator_exponents():
    # no step cap: the walk grows with the logarithm of the entries, so
    # exponents far past the digitwise walk's reach still normalize
    rng = random.Random(6)
    for _ in range(300):
        a = random_string(rng, max_len=8, max_entry=7)
        p = rng.randrange(1, 31)
        sign = rng.choice([1, -1])
        m = string_matrix(a * p)
        m = conjugate(m if sign > 0 else mat_neg(m), exponent_conjugator(rng, 10**6))
        assert normalize_monodromy(m) == Hyperbolic(sign, canonical_form(a * p)), (a, p, m)
    for e in (10**40, -(10**40)):
        c = ((1, 0), (e, 1))
        m = conjugate(string_matrix((5, 3, 2, 2, 3)), c)
        assert normalize_monodromy(m) == Hyperbolic(1, canonical_form((5, 3, 2, 2, 3)))


def test_string_matrix_is_block_product():
    # string_matrix is the product T^-a_n S ... T^-a_1 S of its docstring
    for a in enumerate_strings(5, 2):
        m = _ID
        for x in reversed(a):
            m = mat_mul(m, ((x, 1), (-1, 0)))
        assert string_matrix(a) == m, a


def test_normalize_elliptic_parabolic_conjugates(rng):
    from qball.classifier import _ELLIPTIC_WORDS

    for word, m in _ELLIPTIC_WORDS.items():
        for _ in range(40):
            mm = conjugate(m, random_conjugator(rng))
            assert mm[1][0] != 0  # det 1 and |trace| < 2 rule out c = 0
            assert normalize_monodromy(mm) == Elliptic(word), (word, mm)
    for n in range(-5, 6):
        for sign in (1, -1):
            m = ((1, n), (0, 1))
            if sign < 0:
                m = mat_neg(m)
            for _ in range(25):
                mm = conjugate(m, random_conjugator(rng))
                assert normalize_monodromy(mm) == Parabolic(sign, n), (n, sign, mm)


def test_trace_preserved_by_classification():
    # the hyperbolic string's monodromy trace equals the input trace
    from qball.contfrac import monodromy_matrix

    rng = random.Random(12)
    for _ in range(100):
        a = random_string(rng, max_len=5, max_entry=6)
        m = conjugate(string_matrix(a), random_conjugator(rng))
        got = normalize_monodromy(m)
        assert monodromy_matrix(got.string).trace == m[0][0] + m[1][1]


def test_bundle_verdict_is_s2c_membership():
    # a positive hyperbolic bundle bounds exactly when its string is in
    # S2c, which has no side condition, so both modes give the verdict
    for a in enumerate_strings(7, 0):
        bounds = classify_torus_bundle(Hyperbolic(1, a)).status == BOUNDS
        for mode in ("strict", "relaxed"):
            assert bounds == ("S2c" in tags_of(a, mode)), (a, mode)


# ---------------------------------------------------------------------------
# surgeries


def test_surgery_golden_verdicts():
    assert classify_surgery((3,), 0).status == BOUNDS
    assert classify_surgery((6,), 0).status == BOUNDS
    assert classify_surgery((4,), 0).status == NOT_BOUNDS
    assert classify_surgery((7,), -1).status == NOT_BOUNDS
    assert classify_surgery((2, 2, 2, 3, 2), -1).status == BOUNDS
    assert classify_surgery((6, 2, 2, 2, 6, 2, 2, 2), -1).status == UNKNOWN
    assert classify_surgery((3,), -1).status == NOT_BOUNDS


def test_surgery_verdicts_carry_reasons():
    for a, t in [((3,), 0), ((7,), -1), ((3, 2, 2), 0), ((2, 2), 3)]:
        v = classify_surgery(a, t)
        assert v.reasons
        payload = v.to_json()
        assert payload["status"] == v.status
        assert all({"rule", "detail"} <= set(r) for r in payload["reasons"])


def test_all_two_strings():
    assert classify_surgery((2, 2, 2), -1).status == BOUNDS
    assert classify_surgery((2, 2), 3).status == BOUNDS
    assert classify_surgery((2, 2, 2, 2), 0).status == NOT_BOUNDS
    assert classify_surgery((2, 2), 2).status == UNKNOWN


def test_dual_s1a_parity_obstruction():
    # dual in S1a: odd half-numerator obstructs, even stays open
    # (5,5) has cyclic dual (2,3,2,2,3,2) in S1a over b = (2,3), p = 5
    v = classify_surgery((5, 5), -1)
    assert v.status == NOT_BOUNDS
    assert any(r.rule == "dual-S1a-odd-order" for r in v.reasons)
    # (8,2) has cyclic dual (4,2,2,2,2,2) in S1a over b = (2,2,2), p = 4
    v = classify_surgery((8, 2), -1)
    assert v.status == UNKNOWN
    assert any(r.rule == "dual-S1a-even-order" for r in v.reasons)
    # the length-1 case is preempted by the lens-space rule
    v = classify_surgery((7,), -1)
    assert v.status == NOT_BOUNDS
    assert any(r.rule == "lens" for r in v.reasons)


def test_dual_s1a_numerator_matches_witness_oracle():
    # the classifier reads p off |H1|; the oracle reads it off the S1a
    # witness of the S1a string: d at t = -1, the string itself at the
    # t = 1 mirror (whose dual's dual is the string up to symmetry)
    verdicts = odd = 0
    for a in enumerate_strings(9, 0):
        d = cyclic_dual(a)
        tags = {a: tags_of(a), d: tags_of(d)}
        for x, y in ((a, d), (d, a)):
            for t, s1a_string in ((-1, y), (1, x)):
                if "S1a" not in tags[s1a_string]:
                    continue
                for r in classify_surgery(x, t).reasons:
                    if not r.rule.startswith("dual-S1a-"):
                        continue
                    p = int(re.search(r"p = (\d+)", r.detail).group(1))
                    assert p == isqrt(s1a_square_order(s1a_string)), (x, t)
                    assert (r.rule == "dual-S1a-odd-order") == (p % 2 == 1), (x, t)
                    verdicts += 1
                    odd += p % 2
    assert (verdicts, odd) == (42, 26)


def test_theorem_gap_strings_stay_unknown_on_odd_side():
    for a in [(3, 3, 3, 3, 3, 3), (2, 4, 2, 4, 2, 4, 2, 4), (6, 2, 2, 2, 6, 2, 2, 2)]:
        v = classify_surgery(a, -1)
        assert v.status == UNKNOWN, (a, v)
        assert any("embedding" in r.rule for r in v.reasons)
        assert classify_surgery(a, 0).status == NOT_BOUNDS


def test_even_twist_rules():
    assert classify_surgery((5, 3, 2, 2, 3), 4).status == BOUNDS
    assert classify_surgery((5, 3, 2, 2, 3), -2).status == BOUNDS
    assert classify_surgery((3, 2, 2), 2).status == NOT_BOUNDS
    # S2e member at t = 2: the embedding exists but nothing decides
    assert classify_surgery((2, 2, 2, 3), 2).status == UNKNOWN


def test_odd_twist_rules():
    assert classify_surgery((3, 2, 2), 3).status == NOT_BOUNDS
    assert classify_surgery((2, 2, 2, 3, 2), -3).status == UNKNOWN


def test_mirror_invariance():
    for a in enumerate_strings(6, 0):
        d = cyclic_dual(a)
        for t in range(-3, 4):
            va = classify_surgery(a, t)
            vd = classify_surgery(d, -t)
            if UNKNOWN not in (va.status, vd.status):
                assert va.status == vd.status, (a, t)


def test_never_both_bound():
    for a in enumerate_strings(6, 0):
        v0 = classify_surgery(a, 0)
        v1 = classify_surgery(a, -1)
        assert not (v0.status == BOUNDS and v1.status == BOUNDS), a


def test_square_order_obstruction():
    # a non-square homology order decides the embedding search with zero
    # nodes (even twists: positive kind; odd twists: negative kind)
    got = find_embedding((3, 2, 2), POSITIVE)
    assert (got.outcome, got.certificate, got.nodes) == (EXHAUSTED, DET_NONSQUARE, 0)
    assert homology_order((2, 2, 2, 3, 2), "odd") == 9
    assert find_embedding((2, 2, 2, 3, 2), NEGATIVE).certificate == UNIMODULAR_RANK
    # length 1 is outside the search; the classifier makes the same
    # square test on the order a1 - 2 = 1
    with pytest.raises(ValueError):
        find_embedding((3,), POSITIVE)
    assert gram_order((3,), POSITIVE) == 1


def test_bounds_orders_are_square():
    # whenever membership certifies a ball, the homology order must be a
    # perfect square; sweeping length <= 6 plus the membership-certified
    # part of a random sample at length 8 (the granting rules run before
    # any search, so restricting to members keeps this cheap)
    from qball.families import in_s1, in_s2

    rng = random.Random(77)
    universe = list(enumerate_strings(6, 0))
    sample = [random_string(rng, max_len=8, max_entry=9) for _ in range(400)]
    universe += [a for a in sample if in_s1(a, "relaxed") or in_s2(a, "relaxed")]
    for a in universe:
        for t in (0, -1, 1):
            if len(a) > 6 and not (in_s1(a, "relaxed") or in_s2(a, "relaxed")):
                continue
            if classify_surgery(a, t).status == BOUNDS and max(a) >= 3:
                parity = "even" if t % 2 == 0 else "odd"
                assert is_square(homology_order(a, parity)), (a, t)


def test_strict_mode_boundary_annotation():
    v = classify_surgery((2, 3, 2, 3, 2), 0, "strict")
    assert v.status == UNKNOWN
    assert any(r.rule == "mode-boundary" for r in v.reasons)
    assert classify_surgery((2, 3, 2, 3, 2), 0, "relaxed").status == BOUNDS
    v = classify_surgery((2, 4, 2, 2, 4, 2), -1, "strict")
    assert v.status == UNKNOWN
    assert classify_surgery((2, 4, 2, 2, 4, 2), -1, "relaxed").status == BOUNDS


def test_mode_boundary_is_the_relaxed_redecision():
    # a strict verdict either agrees with the relaxed status and carries
    # no note, or is Unknown and continues after its note with exactly
    # the relaxed verdict's reasons
    boundary = []
    for a in enumerate_strings(7, 0):
        for t in range(-3, 4):
            strict = classify_surgery(a, t, "strict")
            relaxed = classify_surgery(a, t, "relaxed")
            rules = [r.rule for r in strict.reasons]
            if strict.status == relaxed.status:
                assert "mode-boundary" not in rules, (a, t)
                continue
            assert strict.status == UNKNOWN, (a, t)
            cut = rules.index("mode-boundary")
            assert strict.reasons[cut + 1 :] == relaxed.reasons, (a, t)
            boundary.append((a, t))
    # the two k+l = 2 strings, one of them also through the t = 1 mirror
    assert sorted(boundary) == [((2, 2, 3, 2, 3), 0), ((2, 2, 4, 2, 2, 4), -1), ((2, 2, 4, 2, 2, 4), 1)]


def test_dihedral_invariance_and_mirror_premise():
    # verdicts and tag sets ignore rotation and reversal, and the cyclic
    # dual is an involution, which the t = 1 mirror relies on
    for a in enumerate_strings(7, 0):
        b = reverse(rotate(a, len(a) // 2))
        for t in range(-3, 4):
            va, vb = classify_surgery(a, t), classify_surgery(b, t)
            assert va.status == vb.status, (a, t)
            assert [r.rule for r in va.reasons] == [r.rule for r in vb.reasons], (a, t)
        assert mode_tag_sets(b) == mode_tag_sets(a), a
        assert cyclic_dual(cyclic_dual(a)) == a, a


def test_invalid_mode_rejected_on_every_path():
    # the all-2 and lens branches answer before any membership scan
    with pytest.raises(ValueError):
        classify_surgery((2, 2), 1, "bogus")
    with pytest.raises(ValueError):
        classify_surgery((3,), 0, "bogus")
    with pytest.raises(ValueError):
        classify_braid_cover((3, 2, 2), 0, "bogus")


_HALF_NUMERATOR = "dual in S1a with {} half-string numerator p = {}"
_NO_CONSTRUCTION = (
    "a {} cyclic subset exists although the string is outside {}, so the "
    "lattice obstruction is silent and no construction is known"
)
_BOUNDARY = (
    "relaxed membership (side condition k+l >= 2) gives Bounds; the side "
    "condition as written excludes it"
)

# one strict-mode query per surgery rule, with its full verdict
SURGERY_RULE_GOLDENS = [
    ((3,), -1, NOT_BOUNDS, [("lens", "the surgery is L(5,1) with 5 >= 5")]),
    ((3,), 0, BOUNDS, [("lens", "the surgery is the lens space L(1,1)")]),
    ((4,), 0, NOT_BOUNDS, [("lens", "the surgery is L(2,1); only L(1,1) and L(4,1) bound")]),
    ((2,), -3, BOUNDS, [("all-two-odd", "odd surgeries on the all-2 chain bound")]),
    ((2,), 0, NOT_BOUNDS, [("all-two-untwisted", "the untwisted all-2 surgery never bounds")]),
    ((2,), -2, UNKNOWN, [("all-two-even", "no rule covers even twisting t = -2 here")]),
    ((2, 4), 0, BOUNDS, [("even-membership", "string lies in S2a")]),
    (
        (2, 5, 5),
        0,
        BOUNDS,
        [("even-dual-membership", "cyclic dual (2, 2, 3, 2, 2, 4) lies in S2e")],
    ),
    ((2, 2, 2, 5), -1, BOUNDS, [("odd-membership", "string lies in S1b")]),
    ((4, 4), -1, BOUNDS, [("odd-dual-membership", "cyclic dual (2, 3, 2, 3) lies in S1c")]),
    (
        (2, 2, 3, 2, 2, 3),
        1,
        NOT_BOUNDS,
        [
            ("mirror", "orientation reversal to Y((5, 5), -1)"),
            (
                "dual-S1a-odd-order",
                _HALF_NUMERATOR.format("odd", 5) + ": the correction term of the "
                "unique self-conjugate structure is nonzero",
            ),
        ],
    ),
    (
        (2, 2, 2, 2, 2, 4),
        1,
        UNKNOWN,
        [
            ("mirror", "orientation reversal to Y((2, 8), -1)"),
            (
                "dual-S1a-even-order",
                _HALF_NUMERATOR.format("even", 4) + "; no statement decides this case",
            ),
        ],
    ),
    (
        (3,),
        -3,
        NOT_BOUNDS,
        [
            (
                "negative-embedding-exhausted",
                "neither (3,) nor its dual (3,) admits the negative-side lattice "
                "embedding (non-existence is exact)",
            )
        ],
    ),
    (
        (2, 3),
        -2,
        NOT_BOUNDS,
        [
            (
                "positive-embedding-exhausted",
                "neither (2, 3) nor its dual (4,) admits the positive-side lattice "
                "embedding (non-existence is exact)",
            )
        ],
    ),
    (
        (2, 2, 3, 2, 3),
        0,
        UNKNOWN,
        [
            ("even-embedding-found", _NO_CONSTRUCTION.format("positive", "S2")),
            ("mode-boundary", _BOUNDARY),
            ("even-membership", "string lies in S2e"),
        ],
    ),
    (
        (2, 2, 4, 2, 2, 4),
        -1,
        UNKNOWN,
        [
            ("odd-embedding-found", _NO_CONSTRUCTION.format("negative", "S1")),
            ("mode-boundary", _BOUNDARY),
            ("odd-membership", "string lies in S1d"),
        ],
    ),
    ((3,), -2, BOUNDS, [("even-S2c-all-t", "an S2c string bounds for every even twisting")]),
    (
        (2, 2, 2, 3),
        -2,
        UNKNOWN,
        [
            (
                "even-open",
                "a positive embedding exists, and S2 membership outside S2c "
                "decides only t = 0, not t = -2",
            )
        ],
    ),
    (
        (2, 2, 2, 5),
        -3,
        UNKNOWN,
        [
            (
                "odd-open",
                "a negative embedding exists, and S1 membership decides only "
                "t = +-1, not t = -3",
            )
        ],
    ),
]


def _golden_json(status, reasons):
    return {"status": status, "reasons": [{"rule": r, "detail": d} for r, d in reasons]}


@pytest.mark.parametrize("a, t, status, reasons", SURGERY_RULE_GOLDENS)
def test_surgery_rule_goldens(a, t, status, reasons):
    assert classify_surgery(a, t).to_json() == _golden_json(status, reasons)


def test_classify_corpus_pinned(monkeypatch):
    # the 2,225-query corpus (every string of enumerate_strings(7, 0) at
    # each t in -2..2, strict mode) from a cold memo: its statuses and
    # the count of every rule among their reasons
    monkeypatch.setattr(classifier, "_string_cache", {})
    statuses, rules = Counter(), Counter()
    for a in enumerate_strings(7, 0):
        for t in range(-2, 3):
            verdict = classify_surgery(a, t)
            statuses[verdict.status] += 1
            rules.update(r.rule for r in verdict.reasons)
    assert statuses == {BOUNDS: 153, NOT_BOUNDS: 1985, UNKNOWN: 87}
    assert rules == {
        "mirror": 446,
        "negative-embedding-exhausted": 831,
        "positive-embedding-exhausted": 1143,
        "even-open": 80,
        "even-membership": 63,
        "even-S2c-all-t": 48,
        "odd-membership": 25,
        "odd-dual-membership": 19,
        "lens": 9,
        "odd-embedding-found": 4,
        "dual-S1a-odd-order": 3,
        "mode-boundary": 3,
        "dual-S1a-even-order": 2,
        "even-embedding-found": 1,
    }


def test_long_even_power_obstructed_without_search(monkeypatch):
    # (3)^20 at t = -1: |det Q| = 15127^2 is a square, but the discriminant
    # form has no metabolizer, so no search node is spent on a or its dual
    monkeypatch.setattr(classifier, "_string_cache", {})
    a = (3,) * 20
    got = find_embedding(a, NEGATIVE)
    assert (got.outcome, got.certificate, got.nodes) == (EXHAUSTED, NO_METABOLIZER, 0)
    verdict = classify_surgery(a, -1)
    assert verdict.status == NOT_BOUNDS
    assert [r.rule for r in verdict.reasons] == ["negative-embedding-exhausted"]


def _memo_queries(max_len):
    # each string as enumerated (canonical), then a rotated reversal
    for a in enumerate_strings(max_len, 0):
        b = reverse(rotate(a, len(a) // 2 + 1))
        for t in range(-3, 4):
            for mode in ("strict", "relaxed"):
                yield a, t, mode
                yield b, t, mode


def test_string_memo_answers_like_a_cleared_memo(monkeypatch):
    # the details quote the string as given, so a representative must not
    # pick up the wording of an earlier query of its orbit
    monkeypatch.setattr(classifier, "_string_cache", {})
    queries = list(_memo_queries(7))
    warm = [classify_surgery(*q).to_json() for q in queries]
    for q, got in zip(queries, warm):
        classifier._string_cache.clear()
        assert classify_surgery(*q).to_json() == got, q


def test_string_memo_scans_each_orbit_once(monkeypatch):
    # one StringProfile (one membership scan) per orbit of a and of d,
    # and one cyclic_dual per queried orbit at most
    monkeypatch.setattr(classifier, "_string_cache", {})
    scanned, dualized = [], []
    real_profile, real_dual = classifier.StringProfile, classifier.cyclic_dual

    def counting_profile(a):
        scanned.append(tuple(a))
        return real_profile(a)

    def counting_dual(a):
        dualized.append(canonical_form(a))
        return real_dual(a)

    monkeypatch.setattr(classifier, "StringProfile", counting_profile)
    monkeypatch.setattr(classifier, "cyclic_dual", counting_dual)
    queried, queried_a = set(), set()
    for a, t, mode in _memo_queries(6):
        classify_surgery(a, t, mode)
        if max(a) >= 3:
            queried |= {canonical_form(a), cyclic_dual(a)}
            queried_a.add(canonical_form(a))
    assert len(scanned) == len(set(scanned)) == len(queried)
    assert set(scanned) == queried
    assert len(dualized) == len(set(dualized))
    assert set(dualized) <= queried_a


# ---------------------------------------------------------------------------
# Heegaard Floer data


def test_correction_term():
    assert correction_term((2, 2, 2, 3, 2), 1) == 2
    assert correction_term((3, 3, 3), -1) == -1
    assert correction_term((3, 2), 1) == QQ(5, 4)
    with pytest.raises(ClassifierError):
        correction_term((3, 2), 2)


def test_correction_term_antisymmetry():
    for a in enumerate_strings(6, 0):
        d = cyclic_dual(a)
        assert correction_term(a, -1) == -correction_term(d, 1)


# ---------------------------------------------------------------------------
# braids


def test_braid_word_golden():
    assert str(braid_word((3, 2), 0)) == "s1 s2^-1 s1"
    assert str(braid_word((3,), -1)) == "s2^-1 s1^-1 s2^-1 s1^-1 s2^-1 s1^-1 s1 s2^-1"
    assert str(braid_word((2,), 0)) == "s1"
    assert len(braid_word((3, 2), 2).letters) == 12 + 3


def test_burau_self_test_matrix():
    # each full twist block (s1 s2)^3 maps to -Id, so the braid image is
    # (-1)^t times the untwisted one
    def trace(a, t):
        m = burau_matrix(braid_word(a, t))
        return m[0][0] + m[1][1]

    for a in [(3, 2), (4, 2, 3), (2, 2, 5)]:
        assert trace(a, 1) == -trace(a, 0)
        assert trace(a, 2) == trace(a, 0)
        assert trace(a, -1) == -trace(a, 0)
        assert trace(a, -3) == -trace(a, 0)


def test_burau_trace_golden():
    trace, match = burau_trace_check((3, 2), 0)
    assert trace == 4 and match
    assert abs(trace - 2) == homology_order((3, 2), "even")


def test_burau_random_sweep(rng):
    # 1000 strings, every twisting in [-3, 3]; the homology-order
    # consistency for t in {0, -1} is asserted inside the check
    for _ in range(1000):
        a = random_string(rng, max_len=8, max_entry=9, force_big=False)
        for t in range(-3, 4):
            trace, match = burau_trace_check(a, t)
            assert match or max(a) < 3, (a, t)


def test_braid_cover_matches_surgery():
    for a in [(3,), (6,), (3, 2, 2), (5, 3, 2, 2, 3), (2, 2, 2, 3)]:
        for t in (-1, 0, 1, 4):
            inner = classify_surgery(a, t)
            outer = classify_braid_cover(a, t)
            assert outer.status == inner.status
            assert outer.reasons[0].rule == "double-cover"
