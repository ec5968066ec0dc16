"""Bounding verdicts, monodromy normal forms, and the 3-braid view."""

import random
from fractions import Fraction as QQ

import pytest

from qball.chainstring import canonical_form, cyclic_dual
from qball.classifier import (
    BOUNDS,
    NOT_BOUNDS,
    UNKNOWN,
    ClassifierError,
    Elliptic,
    Hyperbolic,
    Parabolic,
    braid_word,
    burau_matrix,
    burau_trace_check,
    classify_braid_cover,
    classify_surgery,
    classify_torus_bundle,
    correction_term,
    grading_shift,
    normalize_monodromy,
    reduced_floer_rank,
    string_matrix,
    _rank_one_embeds,
)
from qball.contfrac import homology_order, is_square
from qball.embedsearch import DET_NONSQUARE, EXHAUSTED, SEARCH, find_embedding
from qball.families import enumerate_strings, tags_of
from qball.lattice import NEGATIVE, POSITIVE
from conftest import random_string

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
    # no fixed cap on the exponent: the power walk stops on the trace
    for base in [(3,), (2, 4)]:
        m = _ID
        for p in range(1, 201):
            m = mat_mul(m, string_matrix(base))
            for sign in (1, -1):
                got = normalize_monodromy(m if sign > 0 else mat_neg(m))
                assert got == Hyperbolic(sign, canonical_form(base * p)), (base, p, sign)


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
            if mm[1][0] == 0:
                continue
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
    assert find_embedding((2, 2, 2, 3, 2), NEGATIVE).certificate == SEARCH
    # length 1 is outside the search; the classifier's rank-one rule
    # makes the same square test on the order a1 - 2 = 1
    with pytest.raises(ValueError):
        find_embedding((3,), POSITIVE)
    assert _rank_one_embeds(3, POSITIVE)


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


# ---------------------------------------------------------------------------
# Heegaard Floer data


def test_reduced_floer_rank():
    assert reduced_floer_rank(0) == 0
    assert reduced_floer_rank(4) == 2
    assert reduced_floer_rank(-4) == 2
    assert reduced_floer_rank(5) == 2
    assert reduced_floer_rank(1) == 0
    assert reduced_floer_rank(-1) == 0
    assert reduced_floer_rank(-3) == 1


def test_correction_term():
    assert correction_term((2, 2, 2, 3, 2), 1) == 2
    assert correction_term((3, 3, 3), -1) == -1
    assert correction_term((3, 2), 1) == QQ(5, 4)
    with pytest.raises(ClassifierError):
        correction_term((3, 2), 2)
    assert grading_shift((2, 2, 2, 3, 2)) == 1


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
