"""Membership deciders and enumerators for the ten string families.

Each family is a set of cyclic strings built from a pair (b, c) of
linear-dual strings and a handful of integer parameters.  Membership is
always up to rotation and reversal, so a decider scans the whole
dihedral orbit of its input and tries to peel each template off the
front.  A successful match is returned as a witness recording the tag,
the rotation/reflection used, and the template parameters; reassembling
the template from the witness reproduces the input exactly.

Template shapes (b and c linear-dual, k = len(b), l = len(c)):

    S1a  (b_1,...,b_k, 2, c_l,...,c_1, 2)                    k+l >= 3
    S1b  (b_1,...,b_k, 2, c_l,...,c_1, 5)                    k+l >= 2
    S1c  (b_1,...,b_k, 3, c_l,...,c_1, 3)                    k+l >= 2
    S1d  (2, b_1+1,...,b_k+1, 2, 2, c_l+1,...,c_1+1, 2)      k+l >= 3
    S1e  (2, 3+x, 2, 3, 3, 2^[x-1], 3, 3)                    x >= 0
    S2a  (b_1+3, b_2,...,b_k, 2, c_l,...,c_1)
    S2b  (3+x, b_1,...,b_k+1, 2^[x], c_l+1,...,c_1)          k+l >= 2
    S2c  (3+x_1, 2^[x_2],..., 3+x_{2k+1}, 2^[x_1],...)       k >= 0
    S2d  (2, 2+x, 2, 3, 2^[x-1], 3, 4)                       x >= 0
    S2e  (2, b_1+1, b_2,...,b_k, 2, c_l,...,c_2, c_1+1, 2)   k+l >= 3
         together with the sporadic member (2, 2, 2, 3)

When a "+1" decoration hits both ends of a length-one string the two
bumps stack (k = 1 in S1d reads as b_1+2), and the window (3, 2^[-1], 3)
appearing in S1e/S2d at x = 0 collapses to the single entry (4).  The
pair b = (1), c = () is admitted wherever no bare b_i survives in the
template (this puts (4, 2) in S2a).

The side conditions k+l >= 3 on S1d and S2e exclude two strings whose
surgeries behave exactly like the rest of the family, so deciders take
a mode: "strict" enforces the conditions as written, "relaxed" lowers
S1d and S2e to k+l >= 2.  Everything else is mode-independent.  The
matchers ignore the mode and yield every split; a mode only filters the
witnesses of one scan through side_condition_holds, so the relaxed
witnesses of a string carry its strict ones too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chainstring import (
    StringError,
    canonical_form,
    cyclic_blocks,
    dual_tail_coeffs,
    is_palindrome,
    linear_dual,
    reverse,
    rotate,
    validate_chain,
)

S1_TAGS = ("S1a", "S1b", "S1c", "S1d", "S1e")
S2_TAGS = ("S2a", "S2b", "S2c", "S2d", "S2e")
EXCEPTIONAL = (6, 2, 2, 2, 6, 2, 2, 2)
EXCEPTIONAL_TAG = "exceptional"
ALL_TAGS = S1_TAGS + S2_TAGS + (EXCEPTIONAL_TAG,)

MODES = ("strict", "relaxed")

# the least k+l = len(b) + len(c) each template admits as written;
# relaxed mode lowers S1d and S2e to 2
_MIN_KL = {"S1a": 3, "S1b": 2, "S1c": 2, "S1d": 3, "S2a": 1, "S2b": 2, "S2e": 3}


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


def side_condition_holds(tag: str, params: dict, mode: str) -> bool:
    """Whether a template match meets its family's k+l side condition."""
    if tag not in _MIN_KL or params.get("sporadic"):
        return True
    floor = 2 if mode == "relaxed" and tag in ("S1d", "S2e") else _MIN_KL[tag]
    return len(params["b"]) + len(params["c"]) >= floor


@dataclass(frozen=True)
class Witness:
    """One successful template match.

    Applying `rotation` (and first reversal, if set) to the input string
    yields exactly assemble(tag, params).
    """

    tag: str
    rotation: int
    reversed: bool
    params: dict = field(compare=False)

    def to_json(self) -> dict:
        params = {}
        for key, value in self.params.items():
            params[key] = list(value) if isinstance(value, tuple) else value
        return {
            "tag": self.tag,
            "rotation": self.rotation,
            "reversed": self.reversed,
            "params": params,
        }


# ---------------------------------------------------------------------------
# template assembly


def _bump_both_ends(b) -> tuple[int, ...]:
    # (b_1+1, b_2, ..., b_{k-1}, b_k+1); both bumps land on b_1 when k = 1
    b = list(b)
    b[0] += 1
    b[-1] += 1
    return tuple(b)


def _collapse_window(x: int) -> tuple[int, ...]:
    # (3, 2^[x-1], 3), read as (4) when x = 0
    if x == 0:
        return (4,)
    return (3,) + (2,) * (x - 1) + (3,)


def _s2c_order(k: int) -> list[int]:
    # visiting order 1, 3, 5, ..., 2k+1, 2, 4, ..., 2k of the x indices
    return list(range(1, 2 * k + 2, 2)) + list(range(2, 2 * k + 1, 2))


def assemble(tag: str, params: dict) -> tuple[int, ...]:
    """Build the template string for a witness's parameters."""
    if tag in ("S1a", "S1b", "S1c"):
        b, c = params["b"], params["c"]
        last = {"S1a": 2, "S1b": 5, "S1c": 3}[tag]
        mid = {"S1a": 2, "S1b": 2, "S1c": 3}[tag]
        return tuple(b) + (mid,) + reverse(c) + (last,)
    if tag == "S1d":
        b, c = params["b"], params["c"]
        return (2,) + _bump_both_ends(b) + (2, 2) + reverse(_bump_both_ends(c)) + (2,)
    if tag == "S1e":
        x = params["x"]
        return (2, 3 + x, 2, 3) + _collapse_window(x) + (3,)
    if tag == "S2a":
        b, c = params["b"], params["c"]
        return (b[0] + 3,) + tuple(b[1:]) + (2,) + reverse(c)
    if tag == "S2b":
        b, c, x = params["b"], params["c"], params["x"]
        head = list(b)
        head[-1] += 1
        tail = list(reverse(c))
        tail[0] += 1
        return (3 + x,) + tuple(head) + (2,) * x + tuple(tail)
    if tag == "S2c":
        xs = params["x"]
        k = (len(xs) - 1) // 2
        order = _s2c_order(k)
        out: list[int] = []
        for j in order:
            out.append(3 + xs[j - 1])
            out.extend([2] * xs[j % (2 * k + 1)])
        return tuple(out)
    if tag == "S2d":
        x = params["x"]
        return (2, 2 + x, 2) + _collapse_window(x) + (4,)
    if tag == "S2e":
        if params.get("sporadic"):
            return (2, 2, 2, 3)
        b, c = params["b"], params["c"]
        head = list(b)
        head[0] += 1
        tail = list(reverse(c))
        tail[-1] += 1
        return (2,) + tuple(head) + (2,) + tuple(tail) + (2,)
    if tag == EXCEPTIONAL_TAG:
        return EXCEPTIONAL
    raise ValueError(f"unknown family tag {tag!r}")


# ---------------------------------------------------------------------------
# per-rotation template matchers
#
# Each matcher takes one fixed sequence s and yields params dicts such
# that assemble(tag, params) == s, whatever their k+l.  The dihedral
# scan happens in _scan().


def _is_dual_pair(b, c) -> bool:
    if b == (1,):
        return c == ()
    if not b or min(b) < 2:
        return False
    return linear_dual(b) == tuple(c)


def _match_s1abc(s, mid: int, last: int):
    # s = b + (mid,) + reverse(c) + (last,), over all splits
    n = len(s)
    if s[n - 1] != last:
        return
    for k in range(1, n - 2):
        if s[k] != mid:
            continue
        b = s[:k]
        c = reverse(s[k + 1 : n - 1])
        if min(b) >= 2 and (not c or min(c) >= 2) and _is_dual_pair(b, c):
            yield {"b": b, "c": c, "k": len(b), "l": len(c)}


def _unbump_both_ends(part):
    # invert _bump_both_ends; None if the result is not entries >= 2
    if len(part) == 1:
        b = (part[0] - 2,)
    else:
        b = (part[0] - 1,) + tuple(part[1:-1]) + (part[-1] - 1,)
    return b if min(b) >= 2 else None


def _match_s1d(s):
    n = len(s)
    if n < 6 or s[0] != 2 or s[n - 1] != 2:
        return
    for k in range(1, n - 4):
        if s[k + 1] != 2 or s[k + 2] != 2:
            continue
        b = _unbump_both_ends(s[1 : k + 1])
        cpart = s[k + 3 : n - 1]
        if b is None or not cpart:
            continue
        c = _unbump_both_ends(reverse(cpart))
        if c is None:
            continue
        if _is_dual_pair(b, c):
            yield {"b": b, "c": c, "k": len(b), "l": len(c)}


def _match_fixed_x(tag, s):
    # S1e and S2d are parameterized by x alone; the length pins x
    # (length is base_len at x = 0 and base_len + x for x >= 1)
    base_len = {"S1e": 6, "S2d": 5}[tag]
    xs = [0] if len(s) == base_len else []
    if len(s) > base_len:
        xs.append(len(s) - base_len)
    for x in xs:
        if assemble(tag, {"x": x}) == s:
            yield {"x": x}


def _match_s2a(s):
    n = len(s)
    if s[0] < 5:
        # b_1 + 3 with b_1 >= 2 needs s[0] >= 5, except the b = (1) case
        if s == (4, 2):
            yield {"b": (1,), "c": (), "k": 1, "l": 0}
        return
    for k in range(1, n):
        if s[k] != 2:
            continue
        b = (s[0] - 3,) + s[1:k]
        c = reverse(s[k + 1 :])
        if min(b) >= 2 and (not c or min(c) >= 2) and _is_dual_pair(b, c):
            yield {"b": b, "c": c, "k": len(b), "l": len(c)}


def _match_s2b(s):
    n = len(s)
    x = s[0] - 3
    if x < 0:
        return
    for k in range(1, n):
        run_end = 1 + k + x
        if run_end >= n:
            break
        if any(v != 2 for v in s[1 + k : run_end]):
            continue
        head = s[1 : 1 + k]
        if head[-1] < 3:
            continue
        b = head[:-1] + (head[-1] - 1,)
        tail = s[run_end:]
        if tail[0] < 3:
            continue
        cpart = (tail[0] - 1,) + tail[1:]
        c = reverse(cpart)
        if min(b) >= 2 and min(c) >= 2 and _is_dual_pair(b, c):
            yield {"b": b, "c": c, "x": x, "k": len(b), "l": len(c)}


def _match_s2c(s):
    if s[0] < 3:
        return
    # parse into (3+x, 2-run) blocks; an odd block count 2k+1 is required
    blocks = []
    i = 0
    n = len(s)
    while i < n:
        if s[i] < 3:
            return
        big = s[i]
        i += 1
        run = 0
        while i < n and s[i] == 2:
            run += 1
            i += 1
        blocks.append((big, run))
    j = len(blocks)
    if j % 2 == 0:
        return
    k = (j - 1) // 2
    order = _s2c_order(k)
    xs = [0] * j
    for t, (big, _run) in enumerate(blocks):
        xs[order[t] - 1] = big - 3
    for t, (_big, run) in enumerate(blocks):
        if run != xs[order[t] % j]:
            return
    yield {"x": tuple(xs), "k": k}


def _match_s2e(s):
    if s == (2, 2, 2, 3):
        yield {"sporadic": True}
    n = len(s)
    if n < 5 or s[0] != 2 or s[n - 1] != 2:
        return
    for k in range(1, n - 3):
        if s[k + 1] != 2:
            continue
        head = s[1 : k + 1]
        if head[0] < 3:
            continue
        b = (head[0] - 1,) + head[1:]
        tail = s[k + 2 : n - 1]
        if not tail or tail[-1] < 3:
            continue
        cpart = tail[:-1] + (tail[-1] - 1,)
        c = reverse(cpart)
        if min(b) >= 2 and min(c) >= 2 and _is_dual_pair(b, c):
            yield {"b": b, "c": c, "k": len(b), "l": len(c)}


_MATCHERS = {
    "S1a": lambda s: _match_s1abc(s, 2, 2),
    "S1b": lambda s: _match_s1abc(s, 2, 5),
    "S1c": lambda s: _match_s1abc(s, 3, 3),
    "S1d": _match_s1d,
    "S1e": lambda s: _match_fixed_x("S1e", s),
    "S2a": _match_s2a,
    "S2b": _match_s2b,
    "S2c": _match_s2c,
    "S2d": lambda s: _match_fixed_x("S2d", s),
    "S2e": _match_s2e,
}


def _scan(a, tags, mode):
    """Distinct witnesses of the given template tags over the dihedral
    orbit of a that meet the side condition of mode, in scan order."""
    seen = set()
    for flipped in (False, True):
        base = reverse(a) if flipped else a
        for k in range(len(a)):
            s = rotate(base, k)
            for tag in tags:
                for params in _MATCHERS[tag](s):
                    key = (tag, k, flipped, repr(sorted(params.items())))
                    if key not in seen and side_condition_holds(tag, params, mode):
                        seen.add(key)
                        yield Witness(tag, k, flipped, params)


def member(a, mode: str = "strict") -> list[Witness]:
    """All family witnesses of a, over every rotation and reflection.

    Witnesses come back sorted by (tag, rotation, reversed).  An empty
    list means a belongs to no family.
    """
    a = validate_chain(a)
    _check_mode(mode)
    out = list(_scan(a, _MATCHERS, mode))
    if equivalent_to_exceptional(a):
        out.append(Witness(EXCEPTIONAL_TAG, 0, False, {}))
    out.sort(key=lambda w: (w.tag, w.rotation, w.reversed))
    return out


def equivalent_to_exceptional(a) -> bool:
    return canonical_form(a) == canonical_form(EXCEPTIONAL)


def tags_of(a, mode: str = "strict") -> set[str]:
    return {w.tag for w in member(a, mode)}


def in_family(a, tag: str, mode: str = "strict") -> bool:
    """Membership in one family, scanning with that family's matcher only."""
    if tag not in ALL_TAGS:
        raise ValueError(f"unknown family tag {tag!r}")
    a = validate_chain(a)
    _check_mode(mode)
    if tag == EXCEPTIONAL_TAG:
        return equivalent_to_exceptional(a)
    return any(_scan(a, (tag,), mode))


def in_s1(a, mode: str = "strict") -> bool:
    return bool(tags_of(a, mode) & set(S1_TAGS))


def in_s2(a, mode: str = "strict") -> bool:
    return bool(tags_of(a, mode) & set(S2_TAGS))


# ---------------------------------------------------------------------------
# the half-reverse criterion for S2c


def s2c_halfreverse(a) -> bool:
    """Decide S2c membership from the blowdown transform alone.

    a (with some entry >= 3) lies in S2c exactly when some dihedral
    representative with first entry >= 3 admits a split i whose
    transformed coefficients have the shape (-d_1,...,-d_i, d_1,...,d_i).
    Splits producing 0 or +-1 coefficients simply do not match.  For
    length-1 strings there is no split; the template decider answers.
    """
    a = validate_chain(a)
    cyclic_blocks(a)  # raises AllTwosError on all-2 input
    n = len(a)
    if n == 1:
        return bool(list(_match_s2c(a)))
    for flipped in (False, True):
        base = reverse(a) if flipped else a
        for k in range(n):
            s = rotate(base, k)
            if s[0] < 3:
                continue
            for i in range(1, n):
                try:
                    coeffs = dual_tail_coeffs(s, i)
                except StringError:
                    continue
                if len(coeffs) != 2 * i:
                    continue
                head, tail = coeffs[:i], coeffs[i:]
                if tail == tuple(-x for x in head) and tail[0] >= 2 and tail[-1] >= 2:
                    return True
    return False


def palindrome_criterion(tag: str, b) -> bool:
    """Palindrome tests deciding when an S2a/S2b string is also in S2c.

    For the S2a string built on b the test is whether (b_1+1, b_2, ...,
    b_k) is a palindrome; for an S2b string it is whether b itself is.
    """
    b = tuple(b)
    if not b:
        raise StringError("palindrome criterion needs a nonempty string")
    if tag == "S2a":
        return is_palindrome((b[0] + 1,) + b[1:])
    if tag == "S2b":
        return is_palindrome(b)
    raise ValueError(f"palindrome criterion applies to S2a/S2b, not {tag!r}")


# ---------------------------------------------------------------------------
# enumeration


def enumerate_strings(max_len: int, i_max: int = 0):
    """Canonical strings with some entry >= 3 and I <= i_max, one per orbit.

    Yields in order of increasing length, lexicographically within each
    length; a string is emitted iff it equals its own canonical form, so
    every dihedral orbit appears exactly once.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")

    def fill(prefix, left, n):
        if len(prefix) == n:
            if max(prefix) >= 3 and prefix == canonical_form(prefix):
                yield prefix
            return
        for extra in range(left + 1):
            yield from fill(prefix + (2 + extra,), left - extra, n)

    for n in range(1, max_len + 1):
        budget = n + i_max  # total of (a_i - 2) allowed by I <= i_max
        if budget >= 1:
            yield from fill((), budget, n)


def dual_pairs(max_total: int):
    """All linear-dual pairs (b, c) with len(b) + len(c) <= max_total.

    Includes the degenerate pair ((1,), ()).  Since len(b) + len(dual)
    = sum(b_i - 1) + 1, the sweep is over strings with that sum bounded.
    """
    if max_total >= 1:
        yield (1,), ()
    stack = [((), 0)]
    while stack:
        b, weight = stack.pop()
        if b:
            c = linear_dual(b)
            if len(b) + len(c) <= max_total:
                yield b, c
        for e in range(1, max_total - weight):
            stack.append((b + (2 + e - 1,), weight + e))


def enumerate_family(tag: str, max_len: int, mode: str = "strict"):
    """Canonical members of one family with length <= max_len."""
    _check_mode(mode)
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    seen = set()

    def emit(params):
        s = assemble(tag, params)
        if len(s) <= max_len and min(s) >= 2:
            cf = canonical_form(s)
            if cf not in seen:
                seen.add(cf)
                return cf
        return None

    if tag == EXCEPTIONAL_TAG:
        if max_len >= len(EXCEPTIONAL):
            yield canonical_form(EXCEPTIONAL)
        return

    if tag in ("S1e", "S2d"):
        base_len = {"S1e": 6, "S2d": 5}[tag]
        for x in range(0, max_len - base_len + 2):
            got = emit({"x": x})
            if got is not None:
                yield got
        return

    if tag == "S2c":
        # each x_i contributes one 2-run, so length = (2k+1) + sum(x_i)
        max_k = (max_len - 1) // 2
        for k in range(0, max_k + 1):
            m = 2 * k + 1
            budget = max_len - m
            stack = [((), budget)]
            while stack:
                xs, left = stack.pop()
                if len(xs) == m:
                    got = emit({"x": xs})
                    if got is not None:
                        yield got
                    continue
                for v in range(left + 1):
                    stack.append((xs + (v,), left - v))
        return

    overhead = {"S1a": 2, "S1b": 2, "S1c": 2, "S1d": 4, "S2a": 1, "S2e": 3}
    if tag in overhead:
        if tag == "S2e" and max_len >= 4:
            got = emit({"sporadic": True})
            if got is not None:
                yield got
        for b, c in dual_pairs(max_len - overhead[tag]):
            if not side_condition_holds(tag, {"b": b, "c": c}, mode):
                continue
            if tag in ("S1d", "S2e") and (b == (1,) or c == (1,) or not b or not c):
                continue
            if tag != "S2a" and b == (1,):
                continue
            got = emit({"b": b, "c": c})
            if got is not None:
                yield got
        return

    if tag == "S2b":
        for b, c in dual_pairs(max_len - 1):
            if b == (1,) or not c or not side_condition_holds(tag, {"b": b, "c": c}, mode):
                continue
            for x in range(0, max_len - 1 - len(b) - len(c) + 1):
                got = emit({"b": b, "c": c, "x": x})
                if got is not None:
                    yield got
        return

    raise ValueError(f"unknown family tag {tag!r}")


def enumerate_members(max_len: int, mode: str = "strict", tags=ALL_TAGS):
    """Canonical members across several tags, with their tag sets."""
    table: dict[tuple[int, ...], set[str]] = {}
    for tag in tags:
        for s in enumerate_family(tag, max_len, mode):
            table.setdefault(s, set()).add(tag)
    return table
