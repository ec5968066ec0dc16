"""Continued fractions, monodromy data and homology orders.

Expected values marked as derived were computed with the independent
oracles in this file (stdlib Fraction evaluation, explicit 2x2 matrix
products) rather than with the code under test.
"""

import itertools
from fractions import Fraction as QQ

import pytest

from qball.chainstring import reverse
from qball.contfrac import (
    ContfracError,
    Fraction,
    NonHyperbolicError,
    cyclic_orders,
    hj_eval,
    hj_expand,
    homology_order,
    is_square,
    monodromy_matrix,
    torsion_order,
)
from conftest import s1a_square_order
from oracles import dual_bridge_fractions


def oracle_eval(entries):
    """Right-to-left evaluation with stdlib rationals."""
    value = None
    for x in reversed(entries):
        value = QQ(x) - (0 if value is None else 1 / value)
    return value


def all_strings(max_len, max_entry, min_len=1):
    for n in range(min_len, max_len + 1):
        yield from itertools.product(range(2, max_entry + 1), repeat=n)


def test_eval_golden():
    assert str(hj_eval((2, 2, 2))) == "4/3"
    assert str(hj_eval((2,))) == "2/1"
    assert str(hj_eval((3, 2, 2))) == "7/3"
    assert str(hj_eval(())) == "1/0"


def test_eval_matches_rational_oracle():
    for s in all_strings(5, 7):
        f = hj_eval(s)
        assert QQ(f.p, f.q) == oracle_eval(s)


def test_eval_rejects_small_entries():
    with pytest.raises(ContfracError):
        hj_eval((3, 1))
    with pytest.raises(ContfracError):
        hj_eval((0,))


def test_expand_golden():
    assert hj_expand(5, 3) == (2, 3)
    assert hj_expand(2, 1) == (2,)
    assert hj_expand(7, 2) == (4, 2)
    assert hj_expand(1, 0) == ()


def test_expand_rejects_bad_input():
    with pytest.raises(ContfracError):
        hj_expand(4, 2)
    with pytest.raises(ContfracError):
        hj_expand(3, 5)


def test_expand_inverts_eval():
    # exhaustive at small length, randomized spot checks at length 8
    for s in all_strings(5, 9):
        f = hj_eval(s)
        assert hj_expand(f.p, f.q) == s
    import random

    rnd = random.Random(1)
    for _ in range(2000):
        s = tuple(rnd.randrange(2, 10) for _ in range(rnd.randrange(6, 9)))
        f = hj_eval(s)
        assert hj_expand(f.p, f.q) == s


def test_reversal_inverts_denominator_mod_p():
    for s in all_strings(6, 6):
        f = hj_eval(s)
        g = hj_eval(reverse(s))
        assert g.p == f.p
        assert (f.q * g.q) % f.p == 1 % f.p


def test_fraction_validation():
    with pytest.raises(ContfracError):
        Fraction(2, 4)
    with pytest.raises(ContfracError):
        Fraction(3, 3)
    assert str(Fraction(7, 3)) == "7/3"


def test_bridge_golden():
    assert tuple(map(str, dual_bridge_fractions((2,), 1))) == ("4/3", "4/3")
    assert tuple(map(str, dual_bridge_fractions((3, 2), 1))) == ("25/11", "25/16")
    assert tuple(map(str, dual_bridge_fractions((2,), 2))) == ("8/5", "8/5")


def test_bridge_identities_exhaustive():
    # both closed forms equal direct evaluation of the assembled chains,
    # for every b of length <= 6 with entries <= 6 and every x <= 4
    from qball.chainstring import linear_dual

    for b in all_strings(6, 6):
        c = linear_dual(b)
        for x in range(1, 5):
            first, second = dual_bridge_fractions(b, x)
            chain1 = b + (x + 1,) + reverse(c)
            chain2 = c + (x + 1,) + reverse(b)
            assert QQ(first.p, first.q) == oracle_eval(chain1), (b, x)
            assert QQ(second.p, second.q) == oracle_eval(chain2), (b, x)


def test_monodromy_golden():
    m = monodromy_matrix((3, 2))
    assert (m.p, m.q, m.s, m.r) == (5, 2, 3, 1)
    m = monodromy_matrix((3,))
    assert (m.p, m.q, m.s, m.r) == (3, 1, 1, 0)
    m = monodromy_matrix((2, 2))
    assert (m.p, m.q, m.s, m.r) == (3, 2, 2, 1)
    assert m.matrix() == ((3, 2), (-2, -1))


def oracle_matrix(a):
    """Product of the blocks [[a_i, 1], [-1, 0]], last entry first."""
    m = ((1, 0), (0, 1))
    for x in reversed(a):
        b = ((x, 1), (-1, 0))
        m = (
            (m[0][0] * b[0][0] + m[0][1] * b[1][0], m[0][0] * b[0][1] + m[0][1] * b[1][1]),
            (m[1][0] * b[0][0] + m[1][1] * b[1][0], m[1][0] * b[0][1] + m[1][1] * b[1][1]),
        )
    return m


def test_monodromy_matches_matrix_product():
    # exhaustive at length <= 5 entries <= 9, plus length <= 8 entries <= 4
    import random

    universe = itertools.chain(
        all_strings(5, 9), all_strings(8, 4, min_len=6)
    )
    for s in universe:
        m = monodromy_matrix(s)
        assert m.matrix() == oracle_matrix(s)
    rnd = random.Random(2)
    for _ in range(3000):
        s = tuple(rnd.randrange(2, 10) for _ in range(rnd.randrange(6, 9)))
        assert monodromy_matrix(s).matrix() == oracle_matrix(s)


def test_cyclic_orders_match_matrix_product_on_long_strings():
    # the trace from the one continuant pass against the explicit product,
    # on random strings up to length 200 (entries up to 40, so hundreds
    # of digits)
    import random

    rnd = random.Random(30)
    for _ in range(400):
        s = tuple(rnd.randrange(2, rnd.choice((4, 8, 41))) for _ in range(rnd.randrange(1, 201)))
        m = oracle_matrix(s)
        trace = m[0][0] + m[1][1]
        assert cyclic_orders(s) == (trace + 2, trace - 2), s
        assert cyclic_orders(list(s)) == cyclic_orders(s)


def test_cyclic_orders_reject_bad_strings():
    with pytest.raises(ContfracError):
        cyclic_orders(())
    with pytest.raises(ContfracError, match="entry 1 < 2"):
        cyclic_orders((3, 1, 2))
    with pytest.raises(ContfracError):
        monodromy_matrix((0,))


def test_torsion_order_golden():
    assert torsion_order((3,), +1) == 1
    assert torsion_order((3,), -1) == 5
    assert torsion_order((2, 2, 2, 3, 2), -1) == 9


def test_torsion_orders_match_trace_formula():
    # |Tor H1| = |tr(+-A) - 2|, and the two signs always differ by 4
    for s in all_strings(6, 9):
        if max(s) < 3:
            continue
        m = oracle_matrix(s)
        tr = m[0][0] + m[1][1]
        assert torsion_order(s, +1) == abs(tr - 2)
        assert torsion_order(s, -1) == abs(-tr - 2)
        assert torsion_order(s, -1) - torsion_order(s, +1) == 4


def test_torsion_order_rejects_parabolic():
    with pytest.raises(NonHyperbolicError):
        torsion_order((2, 2, 2), +1)
    with pytest.raises(NonHyperbolicError):
        torsion_order((2,), -1)


def test_homology_order():
    assert homology_order((3, 2), "even") == 2
    assert homology_order((3, 2), "odd") == 6
    assert homology_order((7,), "odd") == 9
    with pytest.raises(ValueError):
        homology_order((3, 2), "both")


def test_s1a_square_order():
    assert s1a_square_order((2, 2, 2, 3, 2)) == 9
    # rotations of the same orbit give the same answer
    assert s1a_square_order((2, 3, 2, 2, 2)) == 9
    assert s1a_square_order((3, 2, 2, 2, 2)) == 9
    with pytest.raises(ContfracError):
        s1a_square_order((3, 2, 2))


def test_s1a_order_sweep():
    # every S1a member with k+l <= 8: the square formula matches the
    # odd-twisting torsion order and is a perfect square
    from qball.families import assemble, dual_pairs

    count = 0
    for b, c in dual_pairs(8):
        if b == (1,) or len(b) + len(c) < 3:
            continue
        a = assemble("S1a", {"b": b, "c": c})
        order = s1a_square_order(a)
        assert order == torsion_order(a, -1)
        assert is_square(order)
        count += 1
    assert count > 50


def test_is_square():
    assert is_square(9) and is_square(0) and is_square(1) and not is_square(2)
    assert is_square(10**12) and not is_square(10**12 + 1)
    with pytest.raises(ValueError):
        is_square(-1)
