"""Lattice subsets: classification, incidence counts, moves, fixtures."""

import random

import pytest

from qball.chainstring import canonical_form
from qball.lattice import (
    _FIXTURES,
    FIXTURE_DOC,
    INVALID,
    NEGATIVE,
    POSITIVE,
    STANDARD,
    LatticeError,
    classify_subset,
    fixture,
    gram,
    incidence_stats,
    subset_i_invariant,
)
from oracles import (
    check_catalog_2c,
    contract,
    contraction_sites,
    expand,
    expansion_sites,
    incidence_bound_check,
    is_independent,
    random_expansion,
)


def test_classify_golden():
    s = classify_subset([(1, -1), (1, 1)])
    assert (s.kind, s.string) == (NEGATIVE, (2, 2))
    s = classify_subset([(2, 0), (-1, 1)])
    assert (s.kind, s.string) == (POSITIVE, (2, 4))
    s = fixture("length5_23232")
    assert (s.kind, s.string) == (POSITIVE, canonical_form((2, 3, 2, 3, 2)))


def test_classify_rejects():
    with pytest.raises(LatticeError):
        classify_subset([(1, 0)])
    with pytest.raises(LatticeError):
        classify_subset([(1, 0, 0), (0, 1, 0)])
    # square -1 vertices invalidate
    assert classify_subset([(1, 0), (0, 2)]).kind == INVALID
    # an all-2 "positive" pattern is not a subset kind
    assert classify_subset([(1, 1), (-1, -1)]).kind == INVALID


def test_classify_accepts_any_rotation_and_reflection():
    base = fixture("length5_23532")
    vecs = list(base.vectors)
    for k in range(5):
        rot = vecs[k:] + vecs[:k]
        s = classify_subset(rot)
        assert (s.kind, s.string) == (base.kind, base.string)
        s = classify_subset(list(reversed(rot)))
        assert (s.kind, s.string) == (base.kind, base.string)


def test_signed_permutation_invariance(rng):
    subsets = [
        fixture("length5_23232"),
        fixture("exceptional"),
        fixture("star", k=2),
        fixture("chain_cycle_alt"),
    ]
    for base in subsets:
        n = base.n
        for _ in range(20):
            perm = list(range(n))
            rng.shuffle(perm)
            signs = [rng.choice([1, -1]) for _ in range(n)]
            vecs = [
                tuple(signs[j] * v[perm[j]] for j in range(n)) for v in base.vectors
            ]
            s = classify_subset(vecs)
            assert (s.kind, s.string) == (base.kind, base.string)


def test_fixture_catalog_documented_values():
    expect = [
        ("base2_negative", NEGATIVE, (2, 2)),
        ("base2_positive", POSITIVE, (2, 4)),
        ("base3_negative", NEGATIVE, (2, 2, 2)),
        ("base3_positive_522", POSITIVE, (2, 2, 5)),
        ("base3_positive_333", POSITIVE, (3, 3, 3)),
        ("chain_cycle_alt", NEGATIVE, (2, 2, 2, 2)),
        ("length5_23232", POSITIVE, canonical_form((2, 3, 2, 3, 2))),
        ("length5_23532", POSITIVE, canonical_form((2, 3, 5, 3, 2))),
        ("exceptional", NEGATIVE, canonical_form((6, 2, 2, 2, 6, 2, 2, 2))),
    ]
    for name, kind, string in expect:
        s = fixture(name)
        assert (s.kind, s.string) == (kind, string), name
        assert is_independent(s)
    for n in range(2, 8):
        s = fixture("chain_cycle", n=n)
        assert (s.kind, s.string) == (NEGATIVE, (2,) * n)
        st = incidence_stats(s)
        assert st.p_count(2) == n and sum(st.p.values()) == n
    for k in range(1, 5):
        s = fixture("star", k=k)
        assert (s.kind, s.string) == (POSITIVE, (3,) * (2 * k + 1))
        assert incidence_stats(s).p_count(3) == 2 * k + 1
        assert incidence_stats(s).max_coeff == 1
        assert is_independent(s)


def test_every_fixture_builds_at_its_least_parameters():
    assert FIXTURE_DOC.keys() == _FIXTURES.keys()
    for name, (_doc, least, _build) in _FIXTURES.items():
        assert fixture(name, **least).kind != INVALID, name
    assert fixture("chain_cycle", n=2).string == (2, 2)
    assert fixture("star_expanded", k=1).string == canonical_form((4, 3, 2, 3))


def test_fixture_rejects_missing_extra_and_small_parameters():
    for name, params in [
        ("star", {}),
        ("star", {"k": 0}),
        ("chain_cycle", {"n": 1}),
        ("standard_2a", {"x": 0}),
        ("standard_2a", {"x": -1, "y": 0}),
        ("base2_negative", {"n": 3}),
        ("no_such_fixture", {}),
    ]:
        with pytest.raises(LatticeError):
            fixture(name, **params)


def test_star_expanded_fixture():
    # the closed form lists exactly the vectors, in order, of the
    # expansion splitting the edge after the (k+1)-st star vertex over
    # the e_2 column and growing the first vertex
    for k in range(1, 7):
        s = fixture("star_expanded", k=k)
        want = canonical_form((4,) + (3,) * k + (2,) + (3,) * k)
        assert (s.kind, s.string) == (POSITIVE, want)
        site = {"u": k, "w": k + 1, "m": 1, "t": 0}
        assert s.vectors == expand(fixture("star", k=k), site).vectors, k


def test_standard_catalog():
    docs = {
        "2a": lambda x, y: (2,) * x + (3, 2 + y, 2 + x, 3) + (2,) * y,
        "2b": lambda x, y: (2,) * x + (3 + y, 2, 2 + x, 3) + (2,) * y,
        "3a": lambda x, y: (2 + x, 2 + y, 3) + (2,) * x + (4,) + (2,) * y,
        "3b": lambda x, y: (2 + x, 2, 3 + y) + (2,) * x + (4,) + (2,) * y,
        "3c": lambda x, y: (3 + x, 2, 3 + y, 3) + (2,) * x + (3,) + (2,) * y,
    }
    for case, want in docs.items():
        for x in range(4):
            for y in range(4):
                s = fixture(f"standard_{case}", x=x, y=y)
                w = want(x, y)
                assert s.kind == STANDARD, (case, x, y)
                assert s.string in (w, tuple(reversed(w))), (case, x, y, s.string)
                assert is_independent(s)


def test_standard_3a_golden():
    s = fixture("standard_3a", x=1, y=1)
    assert s.string in ((3, 3, 3, 2, 4, 2), (2, 4, 2, 3, 3, 3))


def test_incidence_stats_golden():
    s = fixture("chain_cycle_alt")
    st = incidence_stats(s)
    assert st.p_count(1) == 2 and st.p_count(3) == 2
    assert st.E[0] == frozenset({0, 2, 3})
    assert st.V[3] == frozenset({0, 3})
    s = fixture("star", k=1)
    assert incidence_stats(s).p_count(3) == 3
    # incidence totals agree both ways
    for name in ("length5_23232", "exceptional", "chain_cycle_alt"):
        s = fixture(name)
        st = incidence_stats(s)
        assert sum(k * v for k, v in st.p.items()) == sum(len(v) for v in st.V.values())


def test_incidence_bound_golden():
    chk = incidence_bound_check(fixture("chain_cycle_alt"))
    assert (chk.lhs, chk.rhs, chk.holds) == (4, 0, True)
    assert chk.equality_applicable and chk.rhs_equality == 4 and chk.equality_holds
    chk = incidence_bound_check(fixture("chain_cycle", n=5))
    assert (chk.lhs, chk.rhs_equality) == (5, 5)
    chk = incidence_bound_check(fixture("star", k=1))
    assert (chk.lhs, chk.rhs, chk.equality_holds) == (0, 0, True)
    with pytest.raises(LatticeError):
        incidence_bound_check(classify_subset([(2, 1), (1, -2)]))  # I = 4 > 0


def test_negate_vertex():
    # replacing v_k by -v_k moves negative intersections around the cycle
    # without changing the kind or the string
    def negated(s, k):
        vectors = list(s.vectors)
        vectors[k] = tuple(-c for c in vectors[k])
        return classify_subset(vectors)

    s = fixture("base2_negative")
    t = negated(s, 1)
    assert t.vectors == ((1, -1), (-1, -1))
    assert (t.kind, t.string) == (s.kind, s.string)
    assert negated(t, 1).vectors == s.vectors
    for name, params in [("length5_23232", {}), ("exceptional", {}), ("star_expanded", {"k": 2})]:
        s = fixture(name, **params)
        for k in range(s.n):
            t = negated(s, k)
            assert (t.kind, t.string) == (s.kind, s.string), (name, k)


def test_contract_base_case():
    # the length-3 positive (5,2,2) has two centers over its shared
    # column; both contract to the length-2 positive (4,2)
    s = fixture("base3_positive_522")
    sites = contraction_sites(s)
    centers = {x["s"] for x in sites if x["move"] == "centered"}
    assert centers == {1, 2}
    for site in sites:
        out = contract(s, site)
        assert (out.kind, out.string) == (POSITIVE, (2, 4))
        assert out.provenance.site == site


def test_contract_string_effect():
    # (..., 2, a_s, a_t, ...) -> (..., a_s, a_t - 1, ...)
    s = fixture("star_expanded", k=2)  # (4,3,3,2,3,3)
    site = [x for x in contraction_sites(s) if x["move"] == "rooted"][0]
    out = contract(s, site)
    assert out.string == (3,) * 5
    assert subset_i_invariant(out) == subset_i_invariant(s)


def test_star_contraction_chain():
    # the expanded star contracts back to the star: centered at k = 1
    # (the grow vertex is adjacent there), rooted for k >= 2
    for k in (1, 2, 3):
        s = fixture("star_expanded", k=k)
        sites = contraction_sites(s)
        expected_move = "centered" if k == 1 else "rooted"
        assert {x["move"] for x in sites} == {expected_move}, k
        out = contract(s, sites[0])
        assert (out.kind, out.string) == (POSITIVE, (3,) * (2 * k + 1))


def test_contract_requires_center():
    s = fixture("star", k=1)
    assert contraction_sites(s) == []
    with pytest.raises(LatticeError):
        contract(s, {"move": "centered", "s": 0, "s_tilde": 1, "t": 2, "basis": 0})
    # a listed site with one field changed is not a site
    s = fixture("base3_positive_522")
    site = contraction_sites(s)[0]
    for key, value in [("move", "rooted"), ("basis", (site["basis"] + 1) % 3), ("t", site["s"])]:
        with pytest.raises(LatticeError):
            contract(s, {**site, key: value})


def test_contraction_invariants_on_generated_subsets(rng):
    bases = [
        fixture("chain_cycle_alt"),
        fixture("base3_positive_522"),
        fixture("base3_positive_333"),
        fixture("star", k=2),
    ]
    done = 0
    for base in bases:
        for _ in range(15):
            cur = base
            for _ in range(rng.randrange(1, 4)):
                nxt = random_expansion(cur, rng)
                if nxt is None:
                    break
                assert nxt.kind == cur.kind
                assert subset_i_invariant(nxt) == subset_i_invariant(cur)
                p_old = incidence_stats(cur).p
                p_new = incidence_stats(nxt).p
                assert p_new.get(3, 0) == p_old.get(3, 0) + 1
                for j in set(p_old) | set(p_new):
                    if j != 3:
                        assert p_new.get(j, 0) == p_old.get(j, 0), (cur.string, nxt.string)
                cur = nxt
                done += 1
    assert done > 60


def test_expansion_contraction_gram_roundtrip(rng):
    bases = [fixture("chain_cycle_alt"), fixture("star", k=2), fixture("base3_positive_333")]
    done = 0
    for base in bases:
        for _ in range(20):
            cur = base
            for _ in range(rng.randrange(1, 4)):
                sites = expansion_sites(cur)
                rng.shuffle(sites)
                nxt = None
                for site in sites:
                    try:
                        cand = expand(cur, site)
                    except LatticeError:
                        continue
                    bridge_idx = site["w"] if site["w"] != 0 else cur.n
                    back_sites = [
                        x
                        for x in contraction_sites(cand)
                        if x["s_tilde"] == bridge_idx and x["basis"] == cur.n
                    ]
                    if not back_sites:
                        continue
                    back = contract(cand, back_sites[0])
                    assert gram(back.vectors) == gram(cur.vectors)
                    nxt = cand
                    done += 1
                    break
                if nxt is None:
                    break
                cur = nxt
    assert done > 80


def test_contraction_chains_terminate_at_base_length():
    # repeated contraction from expansions of the S1a-type seed always
    # reaches a subset of length at most 5 with no further sites
    rng = random.Random(31)
    for _ in range(25):
        cur = fixture("chain_cycle_alt")
        for _ in range(rng.randrange(1, 5)):
            nxt = random_expansion(cur, rng)
            if nxt is None:
                break
            cur = nxt
        while True:
            sites = contraction_sites(cur)
            if not sites:
                break
            cur = contract(cur, sites[0])
        assert cur.n <= 5, cur.string


def test_max_coeff_one_on_i0_fixtures():
    # subsets with p1 = p2 = 0 and I = 0 have all coefficients 0 or +-1
    for k in range(1, 5):
        s = fixture("star", k=k)
        st = incidence_stats(s)
        assert st.p_count(1) == 0 and st.p_count(2) == 0
        assert st.max_coeff == 1


def test_catalog_2c_checker():
    from qball.embedsearch import find_embedding
    from qball.families import dual_pairs

    hits = 0
    for b, c in dual_pairs(7):
        if b == (1,) or len(b) + len(c) < 3:
            continue
        string = b[:-1] + (b[-1] + 1, 2, 2, c[-1] + 1) + tuple(reversed(c[:-1]))
        got = find_embedding(string, STANDARD)
        if got.found:
            assert check_catalog_2c(got.witness), string
            hits += 1
    assert hits >= 20
    # the closed-form catalog types are not of this shape
    for case, x, y in [("2a", 1, 1), ("3a", 0, 0), ("3c", 1, 1), ("2b", 2, 1)]:
        assert not check_catalog_2c(fixture(f"standard_{case}", x=x, y=y))


def test_independence_of_valid_subsets(rng):
    for name, params in [
        ("length5_23232", {}),
        ("length5_23532", {}),
        ("exceptional", {}),
        ("chain_cycle", {"n": 6}),
        ("star", {"k": 3}),
    ]:
        assert is_independent(fixture(name, **params))
