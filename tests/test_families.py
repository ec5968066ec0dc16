"""Family deciders, enumerators, and the structural criteria."""

import itertools

import pytest

from qball.chainstring import (
    canonical_form,
    i_invariant,
    linear_dual,
    reverse,
    rotate,
)
from qball.families import (
    ALL_TAGS,
    EXCEPTIONAL,
    S1_TAGS,
    S2_TAGS,
    assemble,
    dual_pairs,
    enumerate_family,
    enumerate_members,
    enumerate_strings,
    in_family,
    in_s1,
    in_s2,
    member,
    palindrome_criterion,
    s2c_halfreverse,
    side_condition_holds,
    tags_of,
)


def test_member_golden():
    witnesses = member((3, 2, 2, 3, 5))
    tags = {w.tag for w in witnesses}
    assert "S2c" in tags
    s2c = [w for w in witnesses if w.tag == "S2c"]
    assert any(tuple(w.params["x"]) == (2, 0, 0) for w in s2c)
    assert any(w.tag == "S2e" for w in member((2, 2, 2, 3)))
    assert member((3, 2, 2)) == []
    assert member((3, 2, 2), "relaxed") == []


def test_in_s1_s2_golden():
    assert in_s1((2, 2, 2, 3, 2))
    assert any(
        w.tag == "S1a" and w.params["b"] in ((2, 2), (3,))
        for w in member((2, 2, 2, 3, 2))
    )
    assert in_s2((3,))
    assert not in_s2((6, 2, 2, 2, 6, 2, 2, 2))
    assert not in_s1((6, 2, 2, 2, 6, 2, 2, 2))
    assert in_family((6, 2, 2, 2, 6, 2, 2, 2), "exceptional")
    assert in_family((2, 2, 2, 6, 2, 2, 2, 6), "exceptional")


def test_family_conventions():
    # the x = 0 members of the two collapsing templates
    assert in_family((2, 3, 2, 3, 4, 3), "S1e")
    assert in_family((2, 2, 2, 4, 4), "S2d")
    assert assemble("S1e", {"x": 0}) == (2, 3, 2, 3, 4, 3)
    assert assemble("S2d", {"x": 0}) == (2, 2, 2, 4, 4)
    assert assemble("S1e", {"x": 1}) == (2, 4, 2, 3, 3, 3, 3)
    assert assemble("S2d", {"x": 2}) == (2, 4, 2, 3, 2, 3, 4)


def test_mode_boundary_members():
    assert not in_s2((2, 3, 2, 3, 2), "strict")
    assert in_s2((2, 3, 2, 3, 2), "relaxed")
    assert not in_s1((2, 4, 2, 2, 4, 2), "strict")
    assert in_s1((2, 4, 2, 2, 4, 2), "relaxed")
    rel = enumerate_members(8, "relaxed")
    st = enumerate_members(8, "strict")
    extra = {s for s in rel if s not in st or rel[s] != st[s]}
    assert extra == {
        canonical_form((2, 3, 2, 3, 2)),
        canonical_form((2, 4, 2, 2, 4, 2)),
    }


def test_witness_roundtrip():
    for s in itertools.islice(enumerate_strings(8, 0), 0, None, 5):
        for w in member(s, "relaxed"):
            if w.tag == "exceptional":
                continue
            base = reverse(s) if w.reversed else s
            assert rotate(base, w.rotation) == assemble(w.tag, w.params), (s, w)


def test_witness_duality_constraint():
    for s in enumerate_strings(7, 0):
        for w in member(s, "relaxed"):
            if "b" in w.params and w.params["c"]:
                assert linear_dual(w.params["b"]) == w.params["c"]


def test_disjointness_and_i_bounds():
    # S1 and S2 never meet; members have -4 <= I <= 0 with I = 0 exactly
    # on S2a/S2b/S2c; checked over every member of length <= 10 with
    # entries <= 12
    table = enumerate_members(10, "relaxed")
    assert len(table) > 400
    for s, tags in table.items():
        if max(s) > 12:
            continue
        assert not (tags & set(S1_TAGS) and tags & set(S2_TAGS)), (s, tags)
        if tags == {"exceptional"}:
            continue
        assert -4 <= i_invariant(s) <= 0, (s, tags)
        assert (i_invariant(s) == 0) == bool(tags & {"S2a", "S2b", "S2c"}), (s, tags)


def test_strict_members_are_relaxed_members():
    for tag in ALL_TAGS:
        strict = set(enumerate_family(tag, 8, "strict"))
        relaxed = set(enumerate_family(tag, 8, "relaxed"))
        assert strict <= relaxed


def test_halfreverse_golden():
    assert s2c_halfreverse((5, 3, 2, 2, 3))
    assert not s2c_halfreverse((3, 2, 2))
    assert s2c_halfreverse((3,))
    assert s2c_halfreverse((5, 2, 2))
    with pytest.raises(Exception):
        s2c_halfreverse((2, 2, 2))


def test_halfreverse_agrees_with_template_decider():
    # exhaustive over all I = 0 strings of length <= 8 (only I = 0
    # strings can be in S2c on either route)...
    count = 0
    for s in enumerate_strings(8, 0):
        if i_invariant(s) != 0:
            continue
        assert in_family(s, "S2c") == s2c_halfreverse(s), s
        count += 1
    assert count > 400
    # ... the halfreverse route rejects every I != 0 string
    for s in itertools.islice(enumerate_strings(7, 0), 0, None, 3):
        if i_invariant(s) != 0:
            assert not s2c_halfreverse(s), s


def test_halfreverse_agrees_on_long_members():
    # every template member up to length 12 passes the halfreverse test
    for s in enumerate_family("S2c", 12):
        assert s2c_halfreverse(s), s


def test_halfreverse_agreement_random_length_12():
    import random

    rnd = random.Random(9)
    checked = 0
    while checked < 300:
        n = rnd.randrange(9, 13)
        s = [2] * n
        # force I = 0 so both deciders are live
        budget = n
        i = 0
        while budget > 0 and i < n:
            add = rnd.randrange(0, min(budget, 6) + 1)
            s[i] += add
            budget -= add
            i += rnd.randrange(1, 3)
        if sum(s) != 3 * n or max(s) < 3:
            continue
        s = tuple(s)
        assert in_family(s, "S2c") == s2c_halfreverse(s), s
        checked += 1


def test_palindrome_criterion_golden():
    assert palindrome_criterion("S2a", (2, 3))
    assert not palindrome_criterion("S2a", (2, 2))
    assert palindrome_criterion("S2b", (2, 2))
    with pytest.raises(ValueError):
        palindrome_criterion("S2c", (2,))


def test_palindrome_criterion_matches_membership():
    # assembling the S2a/S2b template over a dual pair lands in S2c
    # exactly when the criterion's palindrome condition holds
    for b, c in dual_pairs(7):
        if b == (1,):
            continue
        a = assemble("S2a", {"b": b, "c": c})
        if min(a) >= 2:
            assert in_family(a, "S2c") == palindrome_criterion("S2a", b), b
        if len(b) + len(c) >= 2:
            for x in range(0, 3):
                a2 = assemble("S2b", {"b": b, "c": c, "x": x})
                if min(a2) >= 2:
                    assert in_family(a2, "S2c") == palindrome_criterion("S2b", b), (b, x)


def brute_force_strings(max_len, i_max):
    out = set()
    for n in range(1, max_len + 1):
        for s in itertools.product(range(2, 3 + i_max + n + 1), repeat=n):
            if max(s) >= 3 and sum(s) - 3 * n <= i_max:
                out.add(canonical_form(s))
    return out


def test_enumerate_strings_matches_brute_force():
    for max_len, i_max in [(1, 0), (2, 0), (4, 0), (5, 1), (3, 2)]:
        got = list(enumerate_strings(max_len, i_max))
        assert len(got) == len(set(got))  # no duplicates
        assert set(got) == brute_force_strings(max_len, i_max), (max_len, i_max)
        assert all(s == canonical_form(s) for s in got)


def test_enumerate_strings_golden():
    assert list(enumerate_strings(1, 0)) == [(3,)]
    assert set(enumerate_strings(2, 0)) == {(3,), (2, 3), (2, 4), (3, 3)}


def test_enumerate_family_golden():
    assert sorted(enumerate_family("S2c", 3)) == sorted(
        [(3,), (2, 4), (2, 2, 5), (3, 3, 3)]
    )
    assert list(enumerate_family("S1a", 4)) == []
    assert list(enumerate_family("exceptional", 8)) == [canonical_form(EXCEPTIONAL)]
    assert list(enumerate_family("exceptional", 7)) == []


def test_enumerate_family_agrees_with_decider():
    for tag in ALL_TAGS:
        for mode in ("strict", "relaxed"):
            fam = set(enumerate_family(tag, 7, mode))
            via = {s for s in enumerate_strings(7, 0) if in_family(s, tag, mode)}
            assert fam == via, (tag, mode, fam ^ via)


def test_tags_of_multimembership():
    # the palindromic overlap: (5,3,2,2,3) sits in S2a, S2b and S2c
    tags = tags_of((3, 2, 2, 3, 5))
    assert {"S2a", "S2b", "S2c"} <= tags


def test_in_family_single_tag_scan_matches_full_scan():
    # in_family scans with one matcher only; it must agree with the tag
    # set of the full ten-matcher scan for every tag and both modes
    for a in enumerate_strings(7, 0):
        for mode in ("strict", "relaxed"):
            tags = tags_of(a, mode)
            for tag in ALL_TAGS:
                assert in_family(a, tag, mode) == (tag in tags), (a, tag, mode)


def test_one_scan_carries_both_modes():
    # the strict witnesses are the relaxed witnesses that meet the side
    # conditions as written; only S1d and S2e differ, at k+l = 2
    for a in enumerate_strings(7, 0):
        relaxed = member(a, "relaxed")
        strict = [w for w in relaxed if side_condition_holds(w.tag, w.params, "strict")]
        assert [w.to_json() for w in strict] == [w.to_json() for w in member(a, "strict")], a
        for w in relaxed:
            if not side_condition_holds(w.tag, w.params, "strict"):
                assert w.tag in ("S1d", "S2e") and w.params["k"] + w.params["l"] == 2, (a, w)
