"""The no-metabolizer certificate against a brute-force subgroup count.

The oracle works on the full n x n matrix P = -Q: it lists the group
Z^n / P Z^n element by element, with the form x^T P^-1 y read off the
adjugate of P, and grows every isotropic subgroup one element at a
time.  It shares nothing with the two-generator reduction of
embedsearch.discriminant_form beyond the definition of Q.
"""

from fractions import Fraction
from math import gcd, isqrt

import pytest

from qball import embedsearch
from qball.chainstring import cyclic_dual
from qball.contfrac import is_square
from qball.embedsearch import (
    NO_METABOLIZER,
    _prime_factors,
    _target_gram,
    discriminant_form,
    find_embedding,
    gram_order,
    metabolizer_count,
    sweep_strings,
)
from qball.families import enumerate_strings
from qball.lattice import NEGATIVE, POSITIVE, STANDARD
from conftest import square_searches


def _p_matrix(a, kind):
    n = len(a)
    P = [[0] * n for _ in range(n)]
    for i in range(n):
        P[i][i] = a[i]
    for (i, j), g in _target_gram(a, kind).items():
        P[i][j] = P[j][i] = -g
    return P


def _adjugate(P):
    """(det P, adj P) by exact Gauss-Jordan elimination over Q."""
    n = len(P)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(P)]
    det = Fraction(1)
    for k in range(n):
        pivot = next(r for r in range(k, n) if M[r][k] != 0)
        if pivot != k:
            M[k], M[pivot] = M[pivot], M[k]
            det = -det
        det *= M[k][k]
        M[k] = [x / M[k][k] for x in M[k]]
        for r in range(n):
            if r != k and M[r][k] != 0:
                M[r] = [x - M[r][k] * y for x, y in zip(M[r], M[k])]
    adj = [[int(det * M[i][n + j]) for j in range(n)] for i in range(n)]
    return int(det), adj


def brute_metabolizers(a, kind) -> int:
    """Number of subgroups H of Z^n / P Z^n with |H|^2 = |G| on which
    b(x, y) = x^T P^-1 y vanishes mod 1."""
    P = _p_matrix(a, kind)
    n = len(P)
    det, adj = _adjugate(P)
    D = abs(det)

    def key(x):  # P^-1 x mod Z^n, scaled by det
        return tuple(sum(adj[i][j] * x[j] for j in range(n)) % D for i in range(n))

    # every element, with one integer representative each
    zero = (0,) * n
    rep = {key(zero): zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for i in range(n):
            y = tuple(v + (j == i) for j, v in enumerate(x))
            k = key(y)
            if k not in rep:
                rep[k] = y
                frontier.append(y)
    assert len(rep) == D
    m = isqrt(D)

    def b_zero(k1, k2):  # x^T adj y / det is an integer
        return sum(u * v for u, v in zip(rep[k1], k2)) % D == 0

    def add(k1, k2):
        return key(tuple(u + v for u, v in zip(rep[k1], rep[k2])))

    isotropic = [k for k in rep if b_zero(k, k)]
    start = frozenset({key(zero)})
    seen, found = {start}, set()
    stack = [start]
    while stack:
        H = stack.pop()
        if len(H) == m:
            found.add(H)
            continue
        for x in isotropic:
            if x in H or not all(b_zero(x, h) for h in H):
                continue
            K, layer = set(H), set(H)
            while True:  # H + <x>: add x until the coset returns to H
                layer = {add(h, x) for h in layer}
                if layer <= K:
                    break
                K |= layer
            K = frozenset(K)
            if len(K) <= m and K not in seen:
                seen.add(K)
                stack.append(K)
    return len(found)


def _invariant_factors(a, kind):
    R, _form = discriminant_form(a, kind)
    d1 = gcd(*R[0], *R[1])
    return d1, abs(R[0][0] * R[1][1] - R[0][1] * R[1][0]) // d1


def test_oracle_counts():
    assert brute_metabolizers((3,) * 6, NEGATIVE) == 3
    assert brute_metabolizers((3,) * 8, NEGATIVE) == 0
    assert brute_metabolizers((2, 4) * 4, NEGATIVE) == 6
    for a, count in (((3,) * 6, 3), ((3,) * 8, 0), ((2, 4) * 4, 6)):
        assert metabolizer_count(*discriminant_form(a, NEGATIVE)) == count, a


def test_discriminant_form_needs_a_finite_group():
    # the standard kind has no cyclic form, and the positive kind of an
    # all-2 string has |det Q| = 0, whose relation matrix would send the
    # metabolizer count into a loop on an order-0 factor
    for a, kind in (((3, 3, 3), STANDARD), ((2, 2), POSITIVE), ((2, 2, 2, 2), POSITIVE)):
        with pytest.raises(ValueError, match="no finite cyclic discriminant group"):
            discriminant_form(a, kind)


def test_fast_count_agrees_with_oracle_on_the_sweep():
    # all square-determinant searches of sweep_strings(6): the nine
    # without a metabolizer are exactly the ones the certificate settles
    empty = []
    cases = list(square_searches(sweep_strings(6)))
    assert len(cases) == 55
    for a, kind in cases:
        count = brute_metabolizers(a, kind)
        assert metabolizer_count(*discriminant_form(a, kind)) == count, (a, kind)
        if count == 0:
            empty.append((a, kind))
    assert empty == [
        ((3, 3), NEGATIVE),
        ((2, 4, 2, 4), NEGATIVE),
        ((3, 3, 3, 3), NEGATIVE),
        ((2, 2, 4, 3, 4), NEGATIVE),
        ((2, 3, 3, 2, 5), NEGATIVE),
        ((2, 2, 2, 4, 4, 4), NEGATIVE),
        ((2, 2, 5, 2, 2, 5), NEGATIVE),
        ((2, 3, 2, 3, 2, 6), NEGATIVE),
        ((2, 3, 4, 2, 3, 4), NEGATIVE),
    ]


def test_dual_has_the_same_discriminant_group_and_answer():
    # a and its cyclic dual d, searched with one kind: the two reductions
    # give the same invariant factors d1 | d2 and the same answer
    strings = [a for a in enumerate_strings(7, 0) if len(a) >= 3 and len(cyclic_dual(a)) >= 3]
    checked = 0
    for a, kind in square_searches(strings):
        d = cyclic_dual(a)
        checked += 1
        assert _invariant_factors(a, kind) == _invariant_factors(d, kind), (a, d, kind)
        count_a = metabolizer_count(*discriminant_form(a, kind))
        count_d = metabolizer_count(*discriminant_form(d, kind))
        assert (count_a == 0) == (count_d == 0), (a, d, kind)
    assert checked == 96


def test_singular_relation_matrix_is_refused():
    # an infinite discriminant group has no metabolizer count: the Smith
    # basis of a singular R has d2 = 0, which no prime valuation ends on
    with pytest.raises(ValueError, match="singular"):
        metabolizer_count(((2, -2), (-2, 2)), (2, 2, 2))


def test_long_even_power_is_settled_without_nodes():
    got = find_embedding((3,) * 20, NEGATIVE)
    assert (got.outcome, got.certificate, got.nodes) == ("exhausted", NO_METABOLIZER, 0)


def test_prime_factors_each_prime_once():
    p, q = 1000003, 1000033  # primes past the trial divisors
    assert sorted(_prime_factors(p * p * q * 12)) == [2, 3, p, q]
    assert list(_prime_factors(p**3)) == [p]
    assert list(_prime_factors(1)) == []
    # 2^89 - 1 is prime but past the deterministic Miller-Rabin range:
    # it is reported as a factor the count cannot use
    assert list(_prime_factors(3 * (2**89 - 1))) == [3, None]


def _floyd_rho_factor(n):
    # the oracle: Floyd's cycle, one gcd per step, 2^16 steps over all c
    steps = 0
    for c in range(1, 1 << 10):
        x = y = 2
        f = 1
        while f == 1:
            if steps == 1 << 16:
                return None
            steps += 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            f = gcd(x - y, n)
        if f != n:
            return f
    return None


def _square_d1s(strings):
    for a in strings:
        for kind in (NEGATIVE, POSITIVE):
            if is_square(gram_order(a, kind)):
                R, _form = discriminant_form(a, kind)
                yield gcd(gcd(R[0][0], R[0][1]), gcd(R[1][0], R[1][1]))


def test_brent_rho_splits_what_floyd_splits(monkeypatch):
    # every d1 of a square-determinant search on sweep_strings(8), and of
    # (3,2,2,4,2)^64 and its dual, whose 11-digit prime rho must split
    long = (3, 2, 2, 4, 2) * 64
    d1s = list(_square_d1s(sweep_strings(8))) + list(_square_d1s([long, cyclic_dual(long)]))

    def factored(d):
        got = list(_prime_factors(d))
        return sorted(p for p in got if p is not None), got.count(None)

    fast = [factored(d) for d in d1s]
    monkeypatch.setattr(embedsearch, "_rho_factor", _floyd_rho_factor)
    assert fast == [factored(d) for d in d1s]
    assert any(p > 10**10 for primes, _ in fast for p in primes)
