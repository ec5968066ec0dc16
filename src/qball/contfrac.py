"""Hirzebruch-Jung continued fractions and torus bundle homology orders.

Everything here is exact integer arithmetic.  A negative continued
fraction

    [a_1, ..., a_n] = a_1 - 1/(a_2 - 1/(... - 1/a_n))

with all a_i >= 2 evaluates to a fraction p/q with p > q >= 0 and
gcd(p, q) = 1, and conversely every such fraction has a unique
expansion with entries >= 2.  The empty string evaluates to 1/0.

The monodromy of the hyperbolic torus bundle attached to a coefficient
string (a_1, ..., a_n) is conjugate to the matrix

    [[ p,  q],
     [-s, -r]]

where p/q = [a_1, ..., a_n] and s/r = [a_1, ..., a_{n-1}].  Its trace
is p - r, and the torsion subgroup of the first homology of the bundle
with monodromy +A (resp. -A) has order p - r - 2 (resp. p - r + 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ContfracError(ValueError):
    """Raised on malformed continued-fraction input."""


class NonHyperbolicError(ContfracError):
    """Raised when a homology-order formula needs trace > 2."""


@dataclass(frozen=True)
class Fraction:
    """A coprime pair p/q with p > q >= 0.  1/0 is the empty expansion."""

    p: int
    q: int

    def __post_init__(self):
        if not (self.p > self.q >= 0):
            raise ContfracError(f"need p > q >= 0, got {self.p}/{self.q}")
        if math.gcd(self.p, self.q) != 1:
            raise ContfracError(f"{self.p}/{self.q} is not in lowest terms")

    def __str__(self):
        return f"{self.p}/{self.q}"


@dataclass(frozen=True)
class MonodromyMatrix:
    """Entries of the normal-form monodromy [[p, q], [-s, -r]]."""

    p: int
    q: int
    s: int
    r: int

    def __post_init__(self):
        if self.q * self.s - self.p * self.r != 1:
            raise ContfracError("monodromy entries must satisfy qs - pr = 1")

    @property
    def trace(self) -> int:
        return self.p - self.r

    def matrix(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.p, self.q), (-self.s, -self.r))


def hj_eval(entries) -> Fraction:
    """Evaluate [a_1, ..., a_n] with entries >= 2; empty input gives 1/0."""
    p, q = 1, 0
    for x in reversed(tuple(entries)):
        if x <= 1:
            raise ContfracError(f"continued fraction entry {x} < 2")
        p, q = x * p - q, p
    return Fraction(p, q)


def hj_expand(p: int, q: int) -> tuple[int, ...]:
    """The unique entries->=2 expansion of p/q (p > q >= 0 coprime)."""
    if not (p > q >= 0):
        raise ContfracError(f"need p > q >= 0, got {p}/{q}")
    if math.gcd(p, q) != 1:
        raise ContfracError(f"{p}/{q} is not in lowest terms")
    out = []
    while q > 0:
        a = -(-p // q)  # ceil(p/q)
        out.append(a)
        p, q = q, a * q - p
    return tuple(out)


def _continuants(a) -> tuple[int, int, int, int]:
    """(p, q, s, r) of the normal-form monodromy of a, in one pass.

    Reading a from the back, (p, q) runs the recurrence of hj_eval on
    all of a and (s, r) the same recurrence on a_1, ..., a_{n-1}, started
    one step later: both pairs obey u_k = a_k u_{k+1} - u_{k+2}, so only
    their starting values differ.  The one implementation of the
    monodromy matrix; qs - pr = 1 is checked on every call.
    """
    a = tuple(a)
    if not a:
        raise ContfracError("empty coefficient string")
    p, q, s, r = 1, 0, 0, -1
    for x in reversed(a):
        if x <= 1:
            raise ContfracError(f"continued fraction entry {x} < 2")
        p, q, s, r = x * p - q, p, x * s - r, s
    if q * s - p * r != 1:
        raise AssertionError(f"continuants of {a} lost qs - pr = 1")
    return p, q, s, r


def monodromy_matrix(a) -> MonodromyMatrix:
    """Normal-form monodromy data of the coefficient string a."""
    return MonodromyMatrix(*_continuants(a))


def cyclic_orders(a) -> tuple[int, int]:
    """(tr(M_a) + 2, tr(M_a) - 2): |H_1| of the odd and of the even
    surgery on a, which are also |det Q| of its negative and its positive
    cyclic Gram matrices.  The one place the trace becomes an order."""
    p, _, _, r = _continuants(a)
    return p - r + 2, p - r - 2


def torsion_order(a, sign: int) -> int:
    """|Tor H_1| of the bundle with monodromy sign*A(a), sign in {+1, -1}.

    Requires the hyperbolic condition trace = p - r > 2; all-2 strings
    (trace exactly 2) are rejected.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    odd, even = cyclic_orders(a)
    if even <= 0:
        raise NonHyperbolicError(
            f"string {tuple(a)} has trace {even + 2} <= 2 (not hyperbolic)"
        )
    return even if sign > 0 else odd


def homology_order(a, parity: str) -> int:
    """|H_1| of the chain-link surgery with the given twisting parity."""
    if parity == "even":
        return torsion_order(a, +1)
    if parity == "odd":
        return torsion_order(a, -1)
    raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def is_square(n: int) -> bool:
    """Exact perfect-square test for n >= 0."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    r = math.isqrt(n)
    return r * r == n
