import random
from math import isqrt

import pytest

from qball.classifier import _ID, _S, NormalFormNotFound, _mat_mul, _t_pow
from qball.contfrac import ContfracError, hj_eval
from qball.families import member


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_string(rng, max_len=8, max_entry=9, force_big=True):
    n = rng.randrange(1, max_len + 1)
    s = [rng.randrange(2, max_entry + 1) for _ in range(n)]
    if force_big and max(s) < 3:
        s[rng.randrange(n)] = rng.randrange(3, max_entry + 1)
    return tuple(s)


def assert_negative_cyclic_witness(a, vectors):
    """Check, coefficient by coefficient and with plain integer products,
    that vectors in (Z^n, -Id) have the Gram matrix of a negative cyclic
    subset with string a (length >= 3): -a_i on the diagonal, +1 between
    consecutive vectors, -1 on the wraparound pair, 0 elsewhere."""
    n = len(a)
    assert n >= 3 and len(vectors) == n
    assert all(len(v) == n and all(isinstance(x, int) for x in v) for v in vectors)
    for i in range(n):
        for j in range(n):
            if i == j:
                want = -a[i]
            elif abs(i - j) == 1:
                want = 1
            elif {i, j} == {0, n - 1}:
                want = -1
            else:
                want = 0
            got = -sum(x * y for x, y in zip(vectors[i], vectors[j]))
            assert got == want, (a, i, j, got, want)


def s1a_square_order(a) -> int:
    """Torsion order p^2 for a string in the family S1a.

    Here p is the numerator of the half-string of any S1a decomposition
    of a; the value does not depend on the decomposition and always
    agrees with torsion_order(a, -1).
    """
    hits = [w for w in member(a, mode="strict") if w.tag == "S1a"]
    if not hits:
        raise ContfracError(f"{tuple(a)} is not in the family S1a")
    orders = {hj_eval(w.params["b"]).p ** 2 for w in hits}
    if len(orders) != 1:
        raise AssertionError(f"S1a witnesses of {tuple(a)} disagree: {orders}")
    return orders.pop()


def _floor_quad(p: int, q: int, d: int) -> int:
    """floor((p + sqrt(d)) / q) for nonsquare d > 0, any q != 0."""
    f = isqrt(d)
    if q > 0:
        return (p + f) // q
    return -((p + f) // (-q)) - 1


def hyperbolic_cycle_digitwise(m):
    """Cycle of the repelling fixed point's expansion, with conjugator.

    The expansion step x -> 1/(digit - x) conjugates the matrix by
    S*T^-digit; once the exact state (p, q) of the quadratic irrational
    (p + sqrt(disc))/q repeats, the digits in between form the cycle
    word w and the composed conjugator C satisfies
    C m C^-1 = string_matrix(w)^k.  Returns (w, C).

    One digit per step: the oracle for the classifier's walk, which takes
    each run of 2s in one step.
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
