"""Cyclic coefficient strings: equivalence, duals and the I invariant.

A chain of surgery coefficients (-a_1, ..., -a_n) with all a_i >= 2 is
recorded as the plain tuple (a_1, ..., a_n).  Two strings describe the
same surgery when one is a cyclic rotation and/or reversal of the
other, so everything downstream works with the canonical form: the
lexicographically smallest tuple in the dihedral orbit.

Two dualities appear throughout:

* the linear dual of a string b, the unique entries->=2 string c with
  [c] = p/(p-q) where [b] = p/q (orientation reversal of a linear
  plumbing);
* the cyclic dual, which swaps the roles of the "2^[m]" runs and the
  "3+n" entries of a cyclic string (orientation reversal of a cyclic
  plumbing, i.e. of a torus bundle).

Strings serialize as comma-separated decimal integers, e.g. "3,2,2,3,5".
"""

from __future__ import annotations

from .contfrac import hj_eval, hj_expand


class StringError(ValueError):
    """Raised on malformed coefficient strings."""


class AllTwosError(StringError):
    """Raised where an all-2 string has no defined result."""


def validate_chain(a) -> tuple[int, ...]:
    """Check entries >= 2 and length >= 1; return the tuple."""
    a = tuple(a)
    if not a:
        raise StringError("empty coefficient string")
    for x in a:
        if x < 2:
            raise StringError(f"coefficient {x} < 2 in {a}")
    return a


def validate_linear(b) -> tuple[int, ...]:
    """Check a (possibly empty) linear string with entries >= 2."""
    b = tuple(b)
    for x in b:
        if x < 2:
            raise StringError(f"coefficient {x} < 2 in {b}")
    return b


def parse_string(text: str) -> tuple[int, ...]:
    """Parse a comma-separated coefficient string like '3,2,2,3,5'."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise StringError(f"malformed string literal {text!r}") from exc


def format_string(a) -> str:
    return ",".join(str(x) for x in a)


def reverse(a) -> tuple[int, ...]:
    return tuple(reversed(tuple(a)))


def canonical_form(a) -> tuple[int, ...]:
    """Lexicographic minimum over all rotations of a and of reverse(a).

    The rotations are the length-n slices of a + a, and those of the
    reverse the slices of its reversal; the minimum starts at a minimal
    entry, so only the slices starting at one are compared.
    """
    a = validate_chain(a)
    n = len(a)
    low = min(a)
    doubled = a + a
    return min(
        s[k : k + n] for s in (doubled, doubled[::-1]) for k in range(n) if s[k] == low
    )


def equivalent(a, b) -> bool:
    return canonical_form(a) == canonical_form(b)


def i_invariant(a) -> int:
    """The complexity invariant I(a) = sum(a_i - 3)."""
    a = validate_chain(a)
    return sum(a) - 3 * len(a)


def linear_dual(b) -> tuple[int, ...]:
    """Linear dual: [dual] = p/(p-q) where [b] = p/q.

    The dual of the all-2 string of length k is (k+1), and the dual of
    the special string (1) is the empty string.
    """
    b = tuple(b)
    if b == (1,):
        return ()
    if not b:
        raise StringError("linear dual of the empty string is (1), not a string")
    b = validate_linear(b)
    f = hj_eval(b)
    return hj_expand(f.p, f.p - f.q)


def cyclic_blocks(a) -> list[tuple[int, int]]:
    """Block decomposition of a cyclic string with some entry >= 3.

    Starts at the first entry >= 3 of a and returns [(big_1, run_1),
    ...]: each entry >= 3 together with the length of the 2-run that
    follows it cyclically.
    """
    a = tuple(a)
    blocks = []
    big = lead = run = 0
    for x in a:
        if x == 2:
            run += 1
        elif x < 3:
            validate_chain(a)  # raises on this entry < 2
        else:
            if big:
                blocks.append((big, run))
            else:
                lead = run  # the 2s before the first big entry
            big, run = x, 0
    if not big:
        a = validate_chain(a)  # raises on an empty string
        raise AllTwosError(f"{a} has no entry >= 3")
    blocks.append((big, run + lead))  # the trailing run wraps around
    return blocks


def cyclic_dual(a) -> tuple[int, ...]:
    """Cyclic dual: blockwise (2^[m], 3+n, ...) <-> (3+m, 2^[n], ...).

    Undefined (raises AllTwosError) for all-2 strings, whose bundles are
    parabolic.  Involutive up to equivalence, and I(a) + I(dual) = 0.
    """
    blocks = cyclic_blocks(a)
    out: list[int] = []
    # The run preceding each big entry (cyclically) becomes its new big
    # entry, so the run of the *previous* block pairs with each big one.
    for j, (big, _run) in enumerate(blocks):
        prev_run = blocks[j - 1][1]
        out.append(3 + prev_run)
        out.extend([2] * (big - 3))
    return canonical_form(out)


