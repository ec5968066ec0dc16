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

The exceptional string (6, 2, 2, 2, 6, 2, 2, 2) is a fixed one-string
template in the matcher table, so its witnesses round-trip like the rest.

When a "+1" decoration hits both ends of a length-one string the two
bumps stack (k = 1 in S1d reads as b_1+2), and the window (3, 2^[-1], 3)
appearing in S1e/S2d at x = 0 collapses to the single entry (4).  The
pair b = (1), c = () is admitted wherever no bare b_i survives in the
template (this puts (4, 2) in S2a).

The side conditions k+l >= 3 on S1d and S2e exclude two strings whose
surgeries behave exactly like the rest of the family, so deciders take
a mode: "strict" enforces the conditions as written, "relaxed" lowers
S1d and S2e to k+l >= 2.  Everything else is mode-independent.  The
matchers ignore the mode and yield every match whatever its k+l; a mode
only filters the witnesses of one scan through side_condition_holds, so
the relaxed witnesses of a string carry its strict ones too.

Two facts about linear-dual pairs keep the scan quadratic in the length.
For such a pair (b, c), Riemenschneider's point diagram gives
len(c) = 1 + sum(b_i - 2) and len(b) = 1 + sum(c_i - 2).  So
sum(b_i - 3) + sum(c_i - 3) = -2, and every member of a family has one
fixed I = sum(a_i - 3):

    S1a -4    S2e -3 (the sporadic (2, 2, 2, 3) too)    S1c, S1d -2
    S1b, S1e, S2d -1    S2a, S2b, S2c and the exceptional string 0

I is invariant under rotation and reversal, so a scan runs only the
matchers whose I equals I(a), and a string with I outside -4..0 needs no
matcher at all.  A second gate reads the surgery orders: every S1 member
and the exceptional string bound a rational ball at t = -1, and every S2
member at t = 0, so |H_1| on that side, tr(M_a) + 2 or tr(M_a) - 2, is a
square, and a scan drops the tags whose side order is not.

Inside a matcher, the length rule pins the split: with the b part
starting at s[lo], the rule reads k + sum(s_i - 2 for lo <= i < lo + k)
= const, and the left side grows strictly with k, so at most one k per
rotation reaches linear_dual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chainstring import canonical_form, cyclic_blocks, linear_dual, reverse, validate_chain
from .contfrac import cyclic_orders, is_square

S1_TAGS = ("S1a", "S1b", "S1c", "S1d", "S1e")
S2_TAGS = ("S2a", "S2b", "S2c", "S2d", "S2e")
EXCEPTIONAL = (6, 2, 2, 2, 6, 2, 2, 2)
EXCEPTIONAL_TAG = "exceptional"
ALL_TAGS = S1_TAGS + S2_TAGS + (EXCEPTIONAL_TAG,)

MODES = ("strict", "relaxed")

# the least k+l = len(b) + len(c) each template admits as written;
# relaxed mode lowers S1d and S2e to 2
_MIN_KL = {"S1a": 3, "S1b": 2, "S1c": 2, "S1d": 3, "S2a": 1, "S2b": 2, "S2e": 3}

# the length of the S1e and S2d templates at x = 0; x >= 1 adds x
_FIXED_X_BASE_LEN = {"S1e": 6, "S2d": 5}

# I(a) = sum(a_i - 3) of every member of each family (module docstring)
_I_BY_TAG = {
    "S1a": -4,
    "S1b": -1,
    "S1c": -2,
    "S1d": -2,
    "S1e": -1,
    "S2a": 0,
    "S2b": 0,
    "S2c": 0,
    "S2d": -1,
    "S2e": -3,
    EXCEPTIONAL_TAG: 0,
}


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


def _dual_split(s, lo: int, target: int) -> int:
    """The one k >= 1 with k + sum(s_i - 2 for lo <= i < lo + k) == target,
    or 0 if none.

    This is each split template's form of len(c) = 1 + sum(b_i - 2).
    Entries are >= 2, so the left side grows by at least 1 per step: at
    most one k qualifies, and the walk reads at most target entries from
    s[lo].
    """
    total = 0
    for k in range(1, target + 1):
        total += s[lo + k - 1] - 1
        if total >= target:
            return k if total == target else 0
    return 0


def _match_s1abc(s, mid: int, last: int):
    # s = b + (mid,) + reverse(c) + (last,); len(c) = n - 2 - k
    n = len(s)
    if s[n - 1] != last:
        return
    k = _dual_split(s, 0, n - 3)
    if not k or s[k] != mid:
        return
    b = s[:k]
    c = reverse(s[k + 1 : n - 1])
    if linear_dual(b) == c:
        yield {"b": b, "c": c, "k": len(b), "l": len(c)}


def _unbump_both_ends(part):
    # invert _bump_both_ends; None if the result is not entries >= 2
    if len(part) == 1:
        b = (part[0] - 2,)
    else:
        b = (part[0] - 1,) + tuple(part[1:-1]) + (part[-1] - 1,)
    return b if min(b) >= 2 else None


def _match_s1d(s):
    # s = (2,) + bumped b + (2, 2) + reversed bumped c + (2,), where the
    # bumps add 2 to sum(b_i - 2); len(c) = n - 4 - k
    n = len(s)
    if n < 6 or s[0] != 2 or s[n - 1] != 2:
        return
    k = _dual_split(s, 1, n - 3)
    if not k or k > n - 5 or s[k + 1] != 2 or s[k + 2] != 2:
        return
    b = _unbump_both_ends(s[1 : k + 1])
    if b is None:
        return
    c = _unbump_both_ends(reverse(s[k + 3 : n - 1]))
    if c is not None and linear_dual(b) == c:
        yield {"b": b, "c": c, "k": len(b), "l": len(c)}


def _match_fixed_x(tag, s):
    # S1e and S2d are parameterized by x alone; the length pins x
    # (length is base_len at x = 0 and base_len + x for x >= 1)
    base_len = _FIXED_X_BASE_LEN[tag]
    xs = [0] if len(s) == base_len else []
    if len(s) > base_len:
        xs.append(len(s) - base_len)
    for x in xs:
        if assemble(tag, {"x": x}) == s:
            yield {"x": x}


def _match_s2a(s):
    # s = (b_1 + 3,) + b[1:] + (2,) + reverse(c); len(c) = n - 1 - k
    n = len(s)
    if s[0] < 5:
        # b_1 + 3 with b_1 >= 2 needs s[0] >= 5, except the b = (1) case
        if s == (4, 2):
            yield {"b": (1,), "c": (), "k": 1, "l": 0}
        return
    # s[0] >= 5 adds at least 3 to the sum, so k <= n - 2 and s[k] exists
    k = _dual_split(s, 0, n + 1)
    if not k or s[k] != 2:
        return
    b = (s[0] - 3,) + s[1:k]
    c = reverse(s[k + 1 :])
    if linear_dual(b) == c:
        yield {"b": b, "c": c, "k": len(b), "l": len(c)}


def _match_s2b(s):
    # s = (3 + x,) + b with b_k + 1 + (2,) * x + reverse(c) with c_1 + 1;
    # len(c) = n - 1 - k - x
    n = len(s)
    x = s[0] - 3
    if x < 0:
        return
    k = _dual_split(s, 1, n - 1 - x)
    run_end = 1 + k + x
    if not k or run_end >= n or any(v != 2 for v in s[1 + k : run_end]):
        return
    head = s[1 : 1 + k]
    tail = s[run_end:]
    if head[-1] < 3 or tail[0] < 3:
        return
    b = head[:-1] + (head[-1] - 1,)
    c = reverse((tail[0] - 1,) + tail[1:])
    if linear_dual(b) == c:
        yield {"b": b, "c": c, "x": x, "k": len(b), "l": len(c)}


def _match_s2c_blocks(blocks):
    # the (3+x, 2-run) blocks of a rotation starting at an entry >= 3;
    # an odd block count 2k+1 is required
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
    # s = (2, b_1 + 1) + b[1:] + (2,) + reverse(c) with c_1 + 1 + (2,);
    # len(c) = n - 3 - k
    if s == (2, 2, 2, 3):
        yield {"sporadic": True}
    n = len(s)
    if n < 5 or s[0] != 2 or s[n - 1] != 2:
        return
    k = _dual_split(s, 1, n - 3)
    if not k or k > n - 4 or s[k + 1] != 2 or s[1] < 3 or s[n - 2] < 3:
        return
    b = (s[1] - 1,) + s[2 : k + 1]
    c = reverse(s[k + 2 : n - 2] + (s[n - 2] - 1,))
    if linear_dual(b) == c:
        yield {"b": b, "c": c, "k": len(b), "l": len(c)}


def _match_exceptional(s):
    if s == EXCEPTIONAL:
        yield {}


_MATCHERS = {
    "S1a": lambda s: _match_s1abc(s, 2, 2),
    "S1b": lambda s: _match_s1abc(s, 2, 5),
    "S1c": lambda s: _match_s1abc(s, 3, 3),
    "S1d": _match_s1d,
    "S1e": lambda s: _match_fixed_x("S1e", s),
    "S2a": _match_s2a,
    "S2b": _match_s2b,
    "S2c": _match_s2c_blocks,  # reads a rotation's cyclic blocks (_scan)
    "S2d": lambda s: _match_fixed_x("S2d", s),
    "S2e": _match_s2e,
    EXCEPTIONAL_TAG: _match_exceptional,
}

# the tags of each I, in _MATCHERS order
_TAGS_BY_I = {i: tuple(tag for tag in _MATCHERS if _I_BY_TAG[tag] == i) for i in set(_I_BY_TAG.values())}


def _scan(a, tags, mode, i_inv, orders=None, first_strict=False):
    """(tag, rotation, reversed, params) of every witness of the given
    template tags over the dihedral orbit of a that meets the side
    condition of mode, in scan order; i_inv is I(a), and orders, if
    given, is cyclic_orders(a).

    Every member of a family has the I of _I_BY_TAG, so only the tags
    whose I equals I(a) are run.  Every member also bounds a rational
    ball on its side, so of those only the tags whose side order from
    cyclic_orders is a square are run: tr + 2 for S1 and the exceptional
    string, tr - 2 for S2.  A string that no tag admits costs O(n).  A
    split matcher tries only the one split that meets len(c) = 1 +
    sum(b_i - 2), so a scan is O(n^2); each (rotation, reflection, tag)
    yields at most one witness.  With first_strict, a tag leaves the
    scan after its first witness that meets the strict side condition.
    """
    tags = [tag for tag in _TAGS_BY_I.get(i_inv, ()) if tag in tags]
    if not tags:
        return
    odd, even = orders or cyclic_orders(a)
    tags = [tag for tag in tags if is_square(even if tag in S2_TAGS else odd)]
    if not tags:
        return
    n = len(a)
    for flipped in (False, True):
        sliced = tags != ["S2c"]  # another matcher reads the rotations
        base = reverse(a) if flipped else a
        # S2c reads the cyclic blocks, parsed once per orientation: the
        # rotation to the t-th entry >= 3 starts at block t.  An even
        # block count matches no rotation, so S2c then reads none
        blocks = cyclic_blocks(base) if "S2c" in tags else ()
        s2c = len(blocks) % 2 == 1
        if not (sliced or s2c):
            continue
        doubled = base + base  # rotation k is the slice at k
        t = 0
        for k in range(n):
            if not tags:
                return
            s = doubled[k : k + n] if sliced else None
            for tag in tags:
                if tag != "S2c":
                    found = _MATCHERS[tag](s)
                elif s2c and base[k] >= 3:
                    found = _match_s2c_blocks(blocks[t:] + blocks[:t])
                else:
                    continue
                for params in found:
                    if side_condition_holds(tag, params, mode):
                        yield tag, k, flipped, params
                        if first_strict and side_condition_holds(tag, params, "strict"):
                            tags = [other for other in tags if other != tag]
                            break
            t += base[k] >= 3


def member(a, mode: str = "strict") -> list[Witness]:
    """All family witnesses of a, over every rotation and reflection.

    Witnesses come back sorted by (tag, rotation, reversed).  An empty
    list means a belongs to no family.
    """
    a = validate_chain(a)
    _check_mode(mode)
    out = [Witness(*w) for w in _scan(a, _MATCHERS, mode, sum(a) - 3 * len(a))]
    out.sort(key=lambda w: (w.tag, w.rotation, w.reversed))
    return out


def tags_of(a, mode: str = "strict") -> set[str]:
    return {w.tag for w in member(a, mode)}


def mode_tag_sets(a) -> tuple[set[str], set[str]]:
    """(strict, relaxed) tag sets of a: the tags of its witnesses that
    meet the side conditions as written, and of those with S1d and S2e
    lowered to k+l >= 2, from one relaxed scan that collects no Witness
    and stops running a tag once both sets hold it (_tag_sets)."""
    a = validate_chain(a)
    return _tag_sets(a, sum(a) - 3 * len(a))


def _tag_sets(a, i_inv, orders=None) -> tuple[set[str], set[str]]:
    """mode_tag_sets of a valid string, given I(a) and optionally
    cyclic_orders(a), from one relaxed scan that drops a tag at its
    first strict witness: every strict witness is a relaxed one, so
    both sets already hold that tag."""
    strict, relaxed = set(), set()
    for tag, _, _, params in _scan(a, _MATCHERS, "relaxed", i_inv, orders, first_strict=True):
        relaxed.add(tag)
        if side_condition_holds(tag, params, "strict"):
            strict.add(tag)
    return strict, relaxed


def in_family(a, tag: str, mode: str = "strict") -> bool:
    """Membership in one family, scanning with that family's matcher only."""
    if tag not in ALL_TAGS:
        raise ValueError(f"unknown family tag {tag!r}")
    a = validate_chain(a)
    _check_mode(mode)
    return any(_scan(a, (tag,), mode, sum(a) - 3 * len(a)))


def in_s1(a, mode: str = "strict") -> bool:
    return not tags_of(a, mode).isdisjoint(S1_TAGS)


def in_s2(a, mode: str = "strict") -> bool:
    return not tags_of(a, mode).isdisjoint(S2_TAGS)


# ---------------------------------------------------------------------------
# enumeration


def enumerate_strings(max_len: int, i_max: int = 0):
    """Canonical strings with some entry >= 3 and I <= i_max, one per orbit.

    Yields in order of increasing length, lexicographically within each
    length; a string is emitted iff it equals its own canonical form, so
    every dihedral orbit appears exactly once.

    A canonical string is the least of its rotations, that is, a
    necklace, and every prefix of a necklace is a prenecklace.  So only
    prenecklaces are extended, as in the Fredricksen-Kessler-Maiorana
    algorithm (in the constant-amortized-time form of Ruskey, Savage and
    Wang, 1992): with p the period of the longest Lyndon prefix, entry
    t is at least entry t - p, equality keeps p, and a larger entry
    makes the prefix Lyndon (p = t + 1).  A full string is a necklace
    iff p divides its length.  A necklace starts at its least entry and
    is already no larger than its rotations, so it is canonical iff it
    is no larger than the rotations of its reversal that start at that
    entry.  Extending each prefix by increasing entries keeps the
    lexicographic order.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")

    def fill(prefix, p, left, n):
        t = len(prefix)
        if t == n:
            if n % p == 0 and max(prefix) >= 3:
                doubled = prefix[::-1] * 2
                if all(prefix <= doubled[k : k + n] for k in range(n) if doubled[k] == prefix[0]):
                    yield prefix
            return
        low = prefix[t - p] if t else 2
        for x in range(low, left + 3):  # x spends x - 2 of the budget
            yield from fill(prefix + (x,), p if x == low else t + 1, left - x + 2, n)

    for n in range(1, max_len + 1):
        budget = n + i_max  # total of (a_i - 2) allowed by I <= i_max
        if budget >= 1:
            yield from fill((), 1, budget, n)


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

    if tag in _FIXED_X_BASE_LEN:
        base_len = _FIXED_X_BASE_LEN[tag]
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


