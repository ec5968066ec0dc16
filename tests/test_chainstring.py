"""String algebra: canonical forms, duals, and the blowdown transform."""

import itertools

import pytest

from qball.chainstring import (
    AllTwosError,
    StringError,
    canonical_form,
    cyclic_dual,
    equivalent,
    format_string,
    i_invariant,
    linear_dual,
    parse_string,
    reverse,
    validate_chain,
)
from qball.contfrac import hj_eval, torsion_order
from oracles import DegenerateCoefficientError, dual_tail_coeffs, is_palindrome, rotate


def dihedral_orbit(a):
    r = reverse(a)
    return [rotate(a, k) for k in range(len(a))] + [rotate(r, k) for k in range(len(a))]


def all_strings(max_len, max_entry, min_len=1):
    for n in range(min_len, max_len + 1):
        yield from itertools.product(range(2, max_entry + 1), repeat=n)


def test_canonical_form_golden():
    # oracle: brute-force minimum over the listed dihedral orbit
    for a in [(3, 2, 2, 3, 5), (2, 2), (5, 3, 2, 2, 3), (6, 2, 2, 2, 6, 2, 2, 2)]:
        assert canonical_form(a) == min(dihedral_orbit(a))
    assert canonical_form((3, 2, 2, 3, 5)) == (2, 2, 3, 5, 3)
    assert canonical_form((2, 2)) == (2, 2)
    assert canonical_form((5, 3, 2, 2, 3)) == (2, 2, 3, 5, 3)


def test_canonical_form_is_orbit_constant():
    for a in all_strings(5, 5):
        cf = canonical_form(a)
        for s in dihedral_orbit(a):
            assert canonical_form(s) == cf


def test_canonical_form_long_strings(rng):
    # only slices starting at a minimal entry are compared, so strings
    # with many tied minima (periodic ones, and periodic ones with one
    # entry changed) are where a wrong tie-break would show
    periods = [(2, 3), (2, 2, 3, 2, 3), (3,), (2, 4), (3, 2, 2, 4, 2), (2, 2, 2, 3, 2)]
    cases = []
    for period in periods:
        for k in (1, 2, 7, 200 // len(period)):
            cases.append(period * k)
    for _ in range(40):
        n = rng.randint(1, 200)
        cases.append(tuple(rng.choice((2, 2, 2, 3, 4, 7)) for _ in range(n)))
    for base in list(cases):
        a = list(base)
        a[rng.randrange(len(a))] += rng.randint(1, 2)
        cases.append(tuple(a))
    for a in cases:
        b = rotate(a, rng.randrange(len(a)))
        if rng.random() < 0.5:
            b = reverse(b)
        want = min(dihedral_orbit(a))
        assert canonical_form(a) == want, a
        assert canonical_form(b) == want, a


def test_canonical_form_of_a_power(rng):
    # the normal form reads canonical_form(w * k) as canonical_form(w) * k;
    # words that are themselves powers are where a shorter period could
    # change the minimum
    words = []
    for _ in range(300):
        w = tuple(rng.choice((2, 2, 3, 4, 5)) for _ in range(rng.randint(1, 8)))
        if rng.random() < 0.3:
            w = w[: rng.randint(1, 4)]
            w *= rng.randint(2, 8 // len(w))
        words.append(w)
    for w in words:
        cf = canonical_form(w)
        for k in range(1, 9):
            assert canonical_form(w * k) == cf * k, (w, k)
            assert min(dihedral_orbit(w * k)) == cf * k, (w, k)


def test_equivalent():
    assert equivalent((3, 2), (2, 3))
    assert equivalent((3, 2, 2, 3, 5), (5, 3, 2, 2, 3))
    assert not equivalent((3, 2), (3, 3))


def test_validation():
    with pytest.raises(StringError):
        validate_chain(())
    with pytest.raises(StringError):
        validate_chain((3, 1))
    assert parse_string("3,2,2,3,5") == (3, 2, 2, 3, 5)
    assert format_string((3, 2)) == "3,2"
    with pytest.raises(StringError):
        parse_string("3,x")


def test_i_invariant():
    assert i_invariant((2, 2)) == -2
    assert i_invariant((3, 2, 2, 3, 5)) == 0
    assert i_invariant((6, 2, 2, 2, 6, 2, 2, 2)) == 0
    for a in all_strings(4, 6):
        assert i_invariant(a) == i_invariant(canonical_form(a))


def test_rotate_reverse():
    assert reverse((3, 2, 2)) == (2, 2, 3)
    assert rotate((3, 2, 2), 1) == (2, 2, 3)
    assert rotate((3, 2, 2), 3) == (3, 2, 2)
    assert rotate((3, 2, 2), -1) == (2, 3, 2)


def test_palindrome():
    assert is_palindrome((2, 3, 2))
    assert not is_palindrome((2, 2, 3))
    assert is_palindrome((4,))
    with pytest.raises(StringError):
        is_palindrome(())


def test_power_concat():
    # concatenating p copies multiplies the I invariant by p
    a = (3, 2, 2)
    assert i_invariant(a * 3) == 3 * i_invariant(a) == -6


def test_linear_dual_golden():
    assert linear_dual((3, 2)) == (2, 3)
    assert linear_dual((2, 2, 2)) == (4,)
    assert linear_dual((1,)) == ()
    assert linear_dual((2,)) == (2,)
    with pytest.raises(StringError):
        linear_dual(())
    with pytest.raises(StringError):
        linear_dual((3, 1))


def test_linear_dual_fraction_law_and_involution():
    # [dual] = p/(p-q), exhaustively at length <= 5 entries <= 9 and on
    # a seeded sample at length 10 entries <= 9
    import random

    def check(b):
        c = linear_dual(b)
        f, g = hj_eval(b), hj_eval(c)
        assert g.p == f.p and g.q == f.p - f.q
        assert linear_dual(c) == b

    for b in all_strings(5, 9):
        check(b)
    rnd = random.Random(5)
    for _ in range(2000):
        check(tuple(rnd.randrange(2, 10) for _ in range(rnd.randrange(6, 11))))


def test_all_two_rule():
    for k in range(1, 12):
        assert linear_dual((2,) * k) == (k + 1,)
        assert linear_dual((k + 1,)) == (2,) * k


def test_cyclic_dual_golden():
    assert cyclic_dual((3, 2)) == (4,)
    assert cyclic_dual((7,)) == canonical_form((3, 2, 2, 2, 2))
    assert cyclic_dual((3, 3, 3)) == (3, 3, 3)
    assert cyclic_dual((6,)) == (2, 2, 2, 3)
    with pytest.raises(AllTwosError):
        cyclic_dual((2, 2, 2))
    # an entry < 2 or an empty string is malformed, not all-2
    for bad, msg in [((3, 1), "coefficient 1 < 2"), ((2, 0, 2), "coefficient 0 < 2"), ((), "empty")]:
        with pytest.raises(StringError, match=msg):
            cyclic_dual(bad)


def test_cyclic_dual_involution_and_i():
    for a in all_strings(6, 7):
        if max(a) < 3:
            continue
        d = cyclic_dual(a)
        assert cyclic_dual(d) == canonical_form(a)
        assert i_invariant(a) + i_invariant(d) == 0


def test_cyclic_dual_block_law():
    # blocks (2^[m], 3+n, ...) map to (3+m, 2^[n], ...): spot-build both
    # sides from the same block data
    import random

    rnd = random.Random(6)
    for _ in range(300):
        j = rnd.randrange(1, 5)
        ms = [rnd.randrange(0, 4) for _ in range(j)]
        ns = [rnd.randrange(0, 4) for _ in range(j)]
        a = []
        d = []
        for m, n in zip(ms, ns):
            a += [2] * m + [3 + n]
            d += [3 + m] + [2] * n
        assert cyclic_dual(a) == canonical_form(d), (ms, ns)


def test_torsion_order_invariant_under_cyclic_dual():
    for a in all_strings(6, 7):
        if max(a) < 3:
            continue
        d = cyclic_dual(a)
        assert torsion_order(a, +1) == torsion_order(d, +1)
        assert torsion_order(a, -1) == torsion_order(d, -1)


def oracle_chain_trace(coeffs):
    """Trace of the cyclic plumbing monodromy for mixed-sign chain
    coefficients: the product of T^c S blocks."""
    m = ((1, 0), (0, 1))
    for c in coeffs:
        b = ((-c, 1), (-1, 0))
        m = (
            (m[0][0] * b[0][0] + m[0][1] * b[1][0], m[0][0] * b[0][1] + m[0][1] * b[1][1]),
            (m[1][0] * b[0][0] + m[1][1] * b[1][0], m[1][0] * b[0][1] + m[1][1] * b[1][1]),
        )
    return m[0][0] + m[1][1]


def test_dual_tail_coeffs_golden():
    assert dual_tail_coeffs((5, 3, 2, 2, 3), 2) == (-4, -2, 4, 2)
    assert dual_tail_coeffs((4, 3, 2, 3), 2) == (-3, -2, 3, 2)
    with pytest.raises(DegenerateCoefficientError):
        dual_tail_coeffs((3, 2), 1)
    with pytest.raises(StringError):
        dual_tail_coeffs((3, 2), 2)
    with pytest.raises(StringError):
        dual_tail_coeffs((3, 2), 0)


def test_dual_tail_coeffs_preserves_bundle_trace():
    # the transformed coefficients describe the same torus bundle, so
    # the monodromy trace must agree up to sign with the original
    from qball.contfrac import monodromy_matrix

    for a in all_strings(6, 6, min_len=2):
        if max(a) < 3:
            continue
        tr = monodromy_matrix(a).trace if max(a) >= 3 else None
        for i in range(1, len(a)):
            try:
                coeffs = dual_tail_coeffs(a, i)
            except DegenerateCoefficientError:
                continue
            assert abs(oracle_chain_trace(coeffs)) == abs(tr), (a, i, coeffs)
            assert all(abs(c) >= 2 for c in coeffs)
