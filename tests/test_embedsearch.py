"""The embedding engine: completeness, soundness, and the sweep driver."""

import itertools
import multiprocessing
import time

import pytest

from qball import embedsearch
from qball.chainstring import canonical_form
from qball.contfrac import hj_eval, homology_order
from qball.embedsearch import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    DET_NONSQUARE,
    EXHAUSTED,
    FOUND,
    SEARCH,
    THEOREM_GAP_STRINGS,
    _Engine,
    _target_gram,
    find_embedding,
    find_standard,
    naive_find,
    sweep_strings,
    verify_classification,
)
from qball.families import enumerate_members, in_s1, in_s2
from qball.lattice import NEGATIVE, POSITIVE, STANDARD, classify_subset, incidence_stats
from conftest import assert_negative_cyclic_witness


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
    got = find_embedding((3, 3, 3), POSITIVE)
    assert got.found
    assert (got.witness.kind, got.witness.string) == (POSITIVE, (3, 3, 3))
    assert find_embedding((2, 2, 2, 2), NEGATIVE).found
    # positive needs an entry >= 3 by definition
    assert find_embedding((2, 2, 2, 2), POSITIVE).outcome == EXHAUSTED


def test_found_witnesses_revalidate():
    for a in sweep_strings(5):
        for kind in (NEGATIVE, POSITIVE):
            got = find_embedding(a, kind)
            if got.found:
                w = classify_subset(got.witness.vectors)
                assert w.kind == kind
                assert w.string == canonical_form(a)


def test_budget_exceeded_is_distinct():
    got = find_embedding((2, 2, 3, 5, 3), POSITIVE, budget=2)
    assert got.outcome == BUDGET_EXCEEDED
    assert got.witness is None


def test_find_standard_golden():
    assert find_standard((2, 2, 2)).found
    assert find_standard((3, 2, 3, 3, 3)).found  # the I = -1 catalog case


def test_no_standard_subsets_below_i_minus_three():
    # sweep: every string of length <= 6 with I <= -4 exhausts
    for n in range(4, 7):
        for t in itertools.product(range(2, 6), repeat=n):
            if sum(t) - 3 * n <= -4:
                assert find_standard(t).outcome == EXHAUSTED, t


def test_standard_search_finds_catalog_strings():
    assert find_standard((2, 3, 4, 3, 3, 2, 2)).found  # 2a at x=1, y=2
    assert find_standard((3, 2, 3, 3, 3)).found  # 3c at x=y=0
    assert find_standard((3, 2, 4, 2, 4, 2)).found  # 3b at x=1, y=1


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


# State for _gated_row, inherited by the forked pool workers.
_GATE: dict = {}


def _gated_row(args):
    """The sweep's row function, except that the last row waits (up to a
    deadline) until the parent has received the first row, then leaves a
    file saying it was computed."""
    if args[0] == _GATE["last"]:
        deadline = time.monotonic() + 30
        while not _GATE["first_seen"].exists() and time.monotonic() < deadline:
            time.sleep(0.01)
    row = _GATE["row_for"](args)
    if args[0] == _GATE["last"]:
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
    monkeypatch.setattr(embedsearch, "Pool", multiprocessing.get_context("fork").Pool)
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
        got = find_embedding(a, NEGATIVE)
        assert got.found, a
        assert_negative_cyclic_witness(a, got.witness.vectors)
        assert find_embedding(a, POSITIVE).outcome == EXHAUSTED, a
        assert a not in members, a
        assert not in_s1(a, "relaxed") and not in_s2(a, "relaxed"), a
    st = incidence_stats(find_embedding((3, 3, 3, 3, 3, 3), NEGATIVE).witness)
    assert st.p_count(1) == 0 and st.p_count(2) == 2
    # its standard companion: removing one vertex leaves the catalogued
    # standard subset with string (3,2,3,3,3)
    assert find_standard((3, 2, 3, 3, 3)).found


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
    # continued-fraction numerator for a standard (linear) string
    strings = list(sweep_strings(7))
    assert len(strings) == 444
    for a in strings:
        assert _gram_order(a, NEGATIVE) == homology_order(a, "odd"), a
        assert _gram_order(a, POSITIVE) == homology_order(a, "even"), a
        assert _gram_order(a, STANDARD) == hj_eval(a).p, a


def test_prefilter_agrees_with_raw_search():
    # every search the determinant certificate decides is also exhausted
    # by the unfiltered engine; elsewhere the engine decides
    fired = 0
    for a in sweep_strings(6):
        for kind in (NEGATIVE, POSITIVE):
            got = find_embedding(a, kind)
            if got.certificate == DET_NONSQUARE:
                fired += 1
                assert (got.outcome, got.nodes) == (EXHAUSTED, 0), (a, kind)
                assert _Engine(a, kind, DEFAULT_BUDGET).run().outcome == EXHAUSTED, (a, kind)
            else:
                assert got.certificate == SEARCH, (a, kind)
    assert fired == 273
    fired = 0
    for n in range(2, 6):
        for b in itertools.product(range(2, 6), repeat=n):
            got = find_standard(b)
            if got.certificate == DET_NONSQUARE:
                fired += 1
                assert (got.outcome, got.nodes) == (EXHAUSTED, 0), b
                assert _Engine(b, STANDARD, DEFAULT_BUDGET).run().outcome == EXHAUSTED, b
    assert fired == 1300


def test_gram_det_pivots_and_zero():
    # a vanishing pivot is swapped with a lower row; a vanishing column
    # makes the determinant 0, which is a square and never fires
    assert _gram_det((2, 2, 2), {(0, 1): 2, (1, 2): 1}) == 2
    assert _gram_det((2, 2, 3), {(0, 1): 2}) == 0
    # all-2 negative strings have |det Q| = 4 and go to the engine
    assert _gram_order((2, 2, 2, 2), NEGATIVE) == 4
    got = find_embedding((2, 2, 2, 2), NEGATIVE)
    assert got.found and got.certificate == SEARCH
