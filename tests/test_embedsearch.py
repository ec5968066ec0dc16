"""The embedding engine: completeness, soundness, and the sweep driver."""

import dataclasses
import itertools
import multiprocessing
import random
import time
from collections import Counter

import pytest

from qball import embedsearch
from qball.chainstring import canonical_form, cyclic_dual, i_invariant
from qball.contfrac import cyclic_orders, hj_eval, homology_order, is_square
from qball.embedsearch import (
    DET_NONSQUARE,
    EXHAUSTED,
    FOUND,
    NO_METABOLIZER,
    SEARCH,
    THEOREM_GAP_STRINGS,
    UNIMODULAR_RANK,
    Row,
    StringProfile,
    _Engine,
    _row_for,
    _target_gram,
    discriminant_form,
    embedding_witness,
    find_embedding,
    gram_order,
    metabolizer_count,
    sweep_strings,
    verify_classification,
)
from qball.families import (
    EXCEPTIONAL_TAG,
    S1_TAGS,
    S2_TAGS,
    enumerate_strings,
    in_s1,
    in_s2,
    mode_tag_sets,
)
from qball.lattice import NEGATIVE, POSITIVE, STANDARD, classify_subset, incidence_stats
from conftest import (
    OracleEngine,
    assert_negative_cyclic_witness,
    discriminant_form_hj,
    naive_find,
    square_searches,
)
from oracles import enumerate_members


def canonical_strings(n, max_entry, i_max=0):
    out = set()
    for t in itertools.product(range(2, max_entry + 1), repeat=n):
        if sum(t) - 3 * n <= i_max:
            out.add(canonical_form(t))
    return sorted(out)


def test_base_case_completeness_n2_n3():
    # within the I <= 0 universe the only cyclic subsets of length 2
    # and 3 are (2,2), (4,2) and (2,2,2), (5,2,2), (3,3,3)
    neg2 = [a for a in canonical_strings(2, 12) if find_embedding(a, NEGATIVE).found]
    pos2 = [a for a in canonical_strings(2, 12) if find_embedding(a, POSITIVE).found]
    assert neg2 == [(2, 2)]
    assert pos2 == [(2, 4)]
    neg3 = [a for a in canonical_strings(3, 12) if find_embedding(a, NEGATIVE).found]
    pos3 = [a for a in canonical_strings(3, 12) if find_embedding(a, POSITIVE).found]
    assert neg3 == [(2, 2, 2)]
    assert pos3 == [(2, 2, 5), (3, 3, 3)]


def test_find_embedding_golden():
    assert find_embedding((3, 2, 2), NEGATIVE).outcome == EXHAUSTED
    got = embedding_witness((3, 3, 3), POSITIVE)
    assert got.found
    assert (got.witness.kind, got.witness.string) == (POSITIVE, (3, 3, 3))
    assert find_embedding((2, 2, 2, 2), NEGATIVE).found
    # positive needs an entry >= 3 by definition: that rule answers before
    # either certificate, with no node, here and in the naive oracle
    for a in ((2, 2), (2, 2, 2, 2)):
        for got in (find_embedding(a, POSITIVE), naive_find(a, POSITIVE)):
            assert (got.outcome, got.nodes, got.certificate) == (EXHAUSTED, 0, SEARCH), a
    with pytest.raises(ValueError, match="unknown search kind"):
        find_embedding((3, 3, 3), "bogus")


def test_found_witnesses_revalidate():
    # a Found without a witness is searched again by the engine, so every
    # found of the n <= 7 sweep carries the engine's first witness and
    # node count, and the witness revalidates
    found = 0
    for a in sweep_strings(7):
        for kind in (NEGATIVE, POSITIVE):
            got = embedding_witness(a, kind)
            if got.found:
                raw = _Engine(a, kind).run()
                assert (got.witness.vectors, got.nodes, got.certificate) == (raw.witness.vectors, raw.nodes, SEARCH)
                w = classify_subset(got.witness.vectors)
                assert w.kind == kind
                assert w.string == canonical_form(a)
                found += 1
    assert found == 89
    # every other answer passes through as find_embedding gives it
    assert embedding_witness((3, 2, 2), NEGATIVE).certificate == DET_NONSQUARE
    got = embedding_witness((2, 4, 2, 4, 2, 4, 2, 4), NEGATIVE)
    assert got.found and got.certificate == SEARCH and got.witness is not None


def test_find_standard_golden():
    assert find_embedding((2, 2, 2), STANDARD).found
    assert find_embedding((3, 2, 3, 3, 3), STANDARD).found  # the I = -1 catalog case


def test_no_standard_subsets_below_i_minus_three():
    # sweep: every string of length <= 6 with I <= -4 exhausts
    for n in range(4, 7):
        for t in itertools.product(range(2, 6), repeat=n):
            if sum(t) - 3 * n <= -4:
                assert find_embedding(t, STANDARD).outcome == EXHAUSTED, t


def test_standard_search_finds_catalog_strings():
    assert find_embedding((2, 3, 4, 3, 3, 2, 2), STANDARD).found  # 2a at x=1, y=2
    assert find_embedding((3, 2, 3, 3, 3), STANDARD).found  # 3c at x=y=0
    assert find_embedding((3, 2, 4, 2, 4, 2), STANDARD).found  # 3b at x=1, y=1


def test_naive_oracle_agreement():
    # symmetry-reduced search vs the raw enumerator, every string with
    # n <= 4 and entries <= 6, both cyclic kinds
    for n in (2, 3, 4):
        for a in {canonical_form(t) for t in itertools.product(range(2, 7), repeat=n)}:
            for kind in (NEGATIVE, POSITIVE):
                fast = find_embedding(a, kind).found
                slow = naive_find(a, kind).found
                assert fast == slow, (a, kind)


def test_verify_small_n():
    rep = verify_classification(3, "relaxed")
    assert rep.mismatches() == []
    positives = {r.string for r in rep.rows if r.pos == FOUND and len(r.string) == 3}
    assert positives == {(2, 2, 5), (3, 3, 3)}
    negatives = {r.string for r in rep.rows if r.neg == FOUND}
    assert negatives == set()  # all-2 strings are excluded from the sweep


def test_verify_max5_strict_discrepancy():
    rep = verify_classification(5, "strict")
    assert [r.string for r in rep.mismatches()] == [canonical_form((2, 3, 2, 3, 2))]
    rep = verify_classification(5, "relaxed")
    assert rep.mismatches() == []
    row = next(r for r in rep.rows if r.string == canonical_form((2, 3, 2, 3, 2)))
    assert row.pos == FOUND and row.s2_relaxed and not row.s2_strict


def test_verify_deterministic_across_workers():
    rep1 = verify_classification(4, "relaxed", workers=1)
    rep2 = verify_classification(4, "relaxed", workers=2)
    rep3 = verify_classification(4, "relaxed", workers=1)

    def strip(rows):
        return [
            (r.string, r.i_inv, r.s1_strict, r.s1_relaxed, r.s2_strict,
             r.s2_relaxed, r.exceptional, r.neg, r.pos, r.nodes)
            for r in rows
        ]

    assert strip(rep1.rows) == strip(rep2.rows) == strip(rep3.rows)


def test_verify_skip_until():
    rep = verify_classification(3, "relaxed")
    target = rep.rows[3].string
    rep2 = verify_classification(3, "relaxed", skip_until=target)
    assert [r.string for r in rep2.rows] == [r.string for r in rep.rows[3:]]


def test_verify_skip_until_outside_universe():
    # a resume point the sweep never reaches must not restart it
    with pytest.raises(ValueError, match="not in the max_n=4 sweep"):
        verify_classification(4, "relaxed", skip_until=(9, 9))


def test_verify_rejects_fewer_than_one_worker():
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            verify_classification(3, "relaxed", workers=workers)


# State for _gated_row, inherited by the forked pool workers.
_GATE: dict = {}


def _gated_row(a):
    """The sweep's row function, except that the last row waits (up to a
    deadline) until the parent has received the first row, then leaves a
    file saying it was computed."""
    if a == _GATE["last"]:
        deadline = time.monotonic() + 30
        while not _GATE["first_seen"].exists() and time.monotonic() < deadline:
            time.sleep(0.01)
    row = _GATE["row_for"](a)
    if a == _GATE["last"]:
        _GATE["last_done"].touch()
    return row


def test_verify_streams_rows_with_workers(tmp_path, monkeypatch):
    # with two workers the first row reaches the callback while the last
    # row is still uncomputed: a sweep that collected every row before
    # calling back would see last_done already written
    _GATE.update(
        last=list(sweep_strings(4))[-1],
        first_seen=tmp_path / "first_seen",
        last_done=tmp_path / "last_done",
        row_for=embedsearch._row_for,
    )
    monkeypatch.setattr(embedsearch, "_row_for", _gated_row)
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context("fork").Pool)
    last_done_at_first_row = []

    def callback(row):
        if not last_done_at_first_row:
            last_done_at_first_row.append(_GATE["last_done"].exists())
            _GATE["first_seen"].touch()

    rep = verify_classification(4, "relaxed", workers=2, row_callback=callback)
    assert last_done_at_first_row == [False]
    assert _GATE["last_done"].exists()
    assert [r.string for r in rep.rows] == list(sweep_strings(4))


def test_negative_found_rows_have_bounded_i():
    rep = verify_classification(6, "relaxed")
    for r in rep.rows:
        if r.neg == FOUND:
            assert -4 <= r.i_inv <= 0, r.string
            # the classification families cover every negative row except
            # the engine-discovered gap strings
            assert r.s1_relaxed or r.exceptional or r.string in THEOREM_GAP_STRINGS, r.string


def test_theorem_gap_string_witness():
    # every gap string carries a genuine negative cyclic subset, rebuilt
    # coefficient by coefficient from the raw witness vectors, carries no
    # positive cyclic subset, and lies in no family: these are the rows
    # that keep the sweep from being clean, and acceptance criterion 1
    # and the classifier's gap-string test rely on these certificates
    members = enumerate_members(8, "relaxed")
    for a in sorted(THEOREM_GAP_STRINGS):
        got = embedding_witness(a, NEGATIVE)
        assert got.found, a
        assert_negative_cyclic_witness(a, got.witness.vectors)
        assert find_embedding(a, POSITIVE).outcome == EXHAUSTED, a
        assert a not in members, a
        assert not in_s1(a, "relaxed") and not in_s2(a, "relaxed"), a
    st = incidence_stats(embedding_witness((3, 3, 3, 3, 3, 3), NEGATIVE).witness)
    assert st.p_count(1) == 0 and st.p_count(2) == 2
    # its standard companion: removing one vertex leaves the catalogued
    # standard subset with string (3,2,3,3,3)
    assert find_embedding((3, 2, 3, 3, 3), STANDARD).found


def test_sweep_to_nine_reports_only_gap_strings():
    # the whole n <= 9 sweep: every row agrees with the families except
    # the gap strings, so no engine change has flipped a found row
    rep = verify_classification(9, "relaxed")
    assert len(rep.rows) == 4173
    assert sorted(r.string for r in rep.mismatches()) == sorted(THEOREM_GAP_STRINGS)


def _gram_det(a, targets) -> int:
    """Determinant of the Gram matrix with diagonal -a_i and off-diagonal
    entries from targets, by Bareiss fraction-free elimination (every
    intermediate is an exact integer).  The oracle for the trace formula
    the prefilter reads |det Q| from."""
    n = len(a)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = -a[i]
    for (i, j), g in targets.items():
        m[i][j] = m[j][i] = g
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _gram_order(a, kind):
    return abs(_gram_det(a, _target_gram(a, kind)))


def test_gram_determinant_is_homology_order():
    # |det Q| of the searched Gram matrix is the odd-twist order for the
    # negative kind, the even-twist order for the positive kind, and the
    # continued-fraction numerator for a standard (linear) string; the
    # prefilter's gram_order reads the same values
    strings = list(sweep_strings(7))
    assert len(strings) == 444
    for a in strings:
        assert _gram_order(a, NEGATIVE) == homology_order(a, "odd"), a
        assert _gram_order(a, POSITIVE) == homology_order(a, "even"), a
        assert _gram_order(a, STANDARD) == hj_eval(a).p, a
        for kind in (NEGATIVE, POSITIVE, STANDARD):
            assert gram_order(a, kind) == _gram_order(a, kind), (a, kind)


def test_prefilter_agrees_with_raw_search():
    # every search the determinant or the metabolizer certificate decides
    # is also exhausted by the unfiltered engine, and every one the rank
    # rule decides is found by it; elsewhere the engine decides
    fired = {DET_NONSQUARE: 0, NO_METABOLIZER: 0}
    for a in sweep_strings(6):
        for kind in (NEGATIVE, POSITIVE):
            got = find_embedding(a, kind)
            if got.certificate in fired:
                fired[got.certificate] += 1
                assert (got.outcome, got.nodes) == (EXHAUSTED, 0), (a, kind)
                assert _Engine(a, kind).run().outcome == EXHAUSTED, (a, kind)
            elif got.certificate == UNIMODULAR_RANK:
                assert (got.outcome, got.nodes, got.witness) == (FOUND, 0, None), (a, kind)
                assert _Engine(a, kind).run().found, (a, kind)
            else:
                assert got.certificate == SEARCH, (a, kind)
    assert fired == {DET_NONSQUARE: 273, NO_METABOLIZER: 9}
    # one length further, every square-determinant search: the certificate
    # never fires where the raw engine finds a subset
    fired = 0
    for a in sweep_strings(7):
        for kind in (NEGATIVE, POSITIVE):
            got = find_embedding(a, kind)
            if got.certificate != DET_NONSQUARE:
                raw = _Engine(a, kind).run()
                assert raw.outcome == got.outcome, (a, kind)
                fired += got.certificate == NO_METABOLIZER
    assert fired == 15
    fired = 0
    for n in range(2, 6):
        for b in itertools.product(range(2, 6), repeat=n):
            got = find_embedding(b, STANDARD)
            if got.certificate == DET_NONSQUARE:
                fired += 1
                assert (got.outcome, got.nodes) == (EXHAUSTED, 0), b
                assert _Engine(b, STANDARD).run().outcome == EXHAUSTED, b
    assert fired == 1300


def test_rank_rule_agrees_with_raw_search():
    # at n <= 7 a metabolizer is a frame: the count is positive exactly
    # when the raw engine finds a subset, and find_embedding then answers
    # Found with zero nodes, on every square-determinant cyclic search of
    # the n <= 7 sweep and of a seeded sample of strings with n <= 7
    rng = random.Random(7)
    sample = [tuple(rng.randrange(2, 10) for _ in range(rng.randrange(2, 8))) for _ in range(4000)]
    checked = []
    for strings in (sweep_strings(7), sample):
        searches = list(square_searches(strings))
        for a, kind in searches:
            count = metabolizer_count(*discriminant_form(a, kind))
            raw = _Engine(a, kind).run()
            assert count is not None and (count > 0) == raw.found, (a, kind, count)
            got = find_embedding(a, kind)
            want = (FOUND, UNIMODULAR_RANK) if raw.found else (EXHAUSTED, NO_METABOLIZER)
            assert (got.outcome, got.certificate, got.nodes, got.witness) == want + (0, None), (a, kind)
        checked.append(len(searches))
    assert checked == [104, 313]


def test_rank_rule_stops_below_rank_eight():
    # rank 8 admits E8: each of these searches has exactly one metabolizer,
    # yet the engine exhausts it, so the rule must leave n = 8 to the engine
    for a, kind in (
        ((2, 2, 2, 2, 2, 4, 2, 6), POSITIVE),
        ((2, 2, 2, 2, 2, 2, 2, 4), POSITIVE),
        ((2, 2, 2, 2, 2, 2, 4, 4), NEGATIVE),
    ):
        assert metabolizer_count(*discriminant_form(a, kind)) == 1, (a, kind)
        got = find_embedding(a, kind)
        assert (got.outcome, got.certificate) == (EXHAUSTED, SEARCH), (a, kind)


def test_rank_rule_needs_a_complete_count(monkeypatch):
    # a count that a bound stopped (None) proves nothing: with no subgroup
    # enumeration allowed, every search of the n <= 7 sweep whose count
    # comes back None reaches the engine, which finds some and exhausts
    # others
    monkeypatch.setattr(embedsearch, "_SUBGROUP_CANDIDATES", 0)
    outcomes = Counter()
    for a, kind in square_searches(sweep_strings(7)):
        if metabolizer_count(*discriminant_form(a, kind)) is None:
            got = find_embedding(a, kind)
            raw = _Engine(a, kind).run()
            assert (got.outcome, got.certificate, got.nodes) == (raw.outcome, SEARCH, raw.nodes), (a, kind)
            outcomes[got.outcome] += 1
    assert outcomes == {FOUND: 41, EXHAUSTED: 2}


def test_class_rule_keeps_the_first_witness():
    # the engine tries coefficients non-decreasing along each class of
    # columns that the placed vectors treat alike; against the engine
    # without that rule it must give the same outcome and the same first
    # witness, in no more nodes, on every search of the n <= 7 sweep that
    # reaches the engine without the rank rule, and on the three n = 8
    # exhaustions that reach the engine
    searches = [
        (a, kind)
        for a in sweep_strings(7)
        for kind in (NEGATIVE, POSITIVE)
        if find_embedding(a, kind).certificate in (SEARCH, UNIMODULAR_RANK)
    ]
    assert len(searches) == 89
    exhaustions = [
        ((2, 2, 2, 2, 2, 2, 2, 4), POSITIVE),
        ((2, 2, 2, 2, 2, 2, 4, 4), NEGATIVE),
        ((2, 2, 2, 2, 2, 4, 2, 6), POSITIVE),
    ]
    for a, kind in exhaustions:
        got = find_embedding(a, kind)
        assert (got.outcome, got.certificate) == (EXHAUSTED, SEARCH), (a, kind)
    searches += exhaustions
    fewer = 0
    for a, kind in searches:
        got = _Engine(a, kind).run()
        want = OracleEngine(a, kind).run()
        assert got.outcome == want.outcome, (a, kind)
        if want.found:
            assert got.witness.vectors == want.witness.vectors, (a, kind)
        assert got.nodes <= want.nodes, (a, kind)
        fewer += got.nodes < want.nodes
    assert fewer > 0
    assert _Engine((2, 2, 2, 2, 2, 4, 2, 6), POSITIVE).run().nodes == 16


def test_gram_det_pivots_and_zero():
    # a vanishing pivot is swapped with a lower row; a vanishing column
    # makes the determinant 0, which is a square and never fires
    assert _gram_det((2, 2, 2), {(0, 1): 2, (1, 2): 1}) == 2
    assert _gram_det((2, 2, 3), {(0, 1): 2}) == 0
    # all-2 negative strings have |det Q| = 4 and pass the determinant
    # test; at n <= 7 the rank rule finds them
    assert _gram_order((2, 2, 2, 2), NEGATIVE) == 4
    got = find_embedding((2, 2, 2, 2), NEGATIVE)
    assert got.found and got.certificate == UNIMODULAR_RANK


def _public_row(a):
    # the sweep row of a assembled from the public, validating calls
    strict, relaxed = mode_tag_sets(a)
    neg, pos = find_embedding(a, NEGATIVE), find_embedding(a, POSITIVE)
    return Row(
        string=a,
        i_inv=i_invariant(a),
        s1_strict=bool(strict & set(S1_TAGS)),
        s1_relaxed=bool(relaxed & set(S1_TAGS)),
        s2_strict=bool(strict & set(S2_TAGS)),
        s2_relaxed=bool(relaxed & set(S2_TAGS)),
        exceptional=EXCEPTIONAL_TAG in strict,
        neg=neg.outcome,
        pos=pos.outcome,
        nodes=neg.nodes + pos.nodes,
        ms=0.0,
    )


def test_row_profile_matches_the_public_calls():
    # _row_for computes I(a) and the cyclic orders once and validates
    # nothing; with ms masked its rows are those the public calls give
    rows = 0
    for a in sweep_strings(8):
        assert dataclasses.replace(_row_for(a), ms=0.0) == _public_row(a), a
        rows += 1
    assert rows == 1344


def test_string_profile_matches_the_public_api():
    # the sweep rows and the classifier read strings only through their
    # profile; it must say what the validating public calls say, on
    # every classifier string of length <= 7 and its cyclic dual
    strings = set()
    for a in enumerate_strings(7, 0):
        strings |= {a, cyclic_dual(a)}
    assert len(strings) == 677
    for c in sorted(strings):
        p = StringProfile(c)
        assert (p.string, p.i_inv, p.orders) == (c, i_invariant(c), cyclic_orders(c))
        assert (p.strict, p.relaxed) == mode_tag_sets(c), c
        if len(c) < 2:
            continue
        for kind in (NEGATIVE, POSITIVE):
            got, want = p.search(kind), find_embedding(c, kind)
            assert (got.outcome, got.certificate, got.nodes) == (want.outcome, want.certificate, want.nodes)
            assert got.witness == want.witness
            assert p.search(kind) is got  # run once
    with pytest.raises(ValueError):
        p.search(STANDARD)


def test_rank_one_profile_is_the_square_order_test():
    # at n = 1 G is cyclic, so a square |det Q| alone decides; the
    # positive side needs an entry >= 3 first
    for kind, low in ((NEGATIVE, 2), (POSITIVE, 3)):
        for m in range(low, 61):
            got = StringProfile((m,)).search(kind)
            square = is_square(gram_order((m,), kind))
            assert got.found == square, (m, kind)
            assert (got.certificate, got.nodes) == (UNIMODULAR_RANK if square else DET_NONSQUARE, 0)
            with pytest.raises(ValueError):
                find_embedding((m,), kind)
    assert StringProfile((2,)).search(POSITIVE).outcome == EXHAUSTED


def test_discriminant_form_matches_hj_continuants():
    # the five continuants from two _continuants passes are the hj_eval
    # numerators of the definition, on every square cyclic search with
    # 3 <= n <= 9 (n = 2 reads R = P directly)
    searches = 0
    for a, kind in square_searches(sweep_strings(9)):
        if len(a) >= 3:
            assert discriminant_form(a, kind) == discriminant_form_hj(a, kind), (a, kind)
            searches += 1
    assert searches == 460
