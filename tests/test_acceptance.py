"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test prints a PASS line on success (run pytest with -s).
Criterion 1 checks the max_n = 6 sweep against the family tables row by
row.  Every row agrees except one: the exhaustive search proves that the
string (3,3,3,3,3,3) carries a negative cyclic subset while belonging to
no family, a counterexample to the classification the sweep was built to
confirm.  The criterion expects exactly that row as the sweep's mismatch
and certifies it: the witness Gram matrix is rebuilt coefficient by
coefficient below and in test_embedsearch.
"""

import itertools
import random

from qball.chainstring import (
    canonical_form,
    cyclic_dual,
    i_invariant,
    linear_dual,
    reverse,
)
from qball.classifier import (
    BOUNDS,
    NOT_BOUNDS,
    UNKNOWN,
    Elliptic,
    Parabolic,
    burau_matrix,
    burau_trace_check,
    classify_surgery,
    classify_torus_bundle,
    correction_term,
)
from qball.contfrac import (
    hj_eval,
    homology_order,
    is_square,
    monodromy_matrix,
    torsion_order,
)
from qball.embedsearch import (
    EXHAUSTED,
    FOUND,
    THEOREM_GAP_STRINGS,
    embedding_witness,
    find_embedding,
    verify_classification,
)
from qball.families import (
    S1_TAGS,
    S2_TAGS,
    assemble,
    dual_pairs,
    enumerate_strings,
    in_family,
)
from qball.lattice import (
    NEGATIVE,
    POSITIVE,
    STANDARD,
    fixture,
    gram,
    incidence_stats,
    subset_i_invariant,
)
from conftest import assert_negative_cyclic_witness, naive_find, random_string, s1a_square_order
from oracles import (
    contract,
    contraction_sites,
    dual_bridge_fractions,
    enumerate_members,
    palindrome_criterion,
    random_expansion,
    s2c_halfreverse,
)


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_theorem_verification():
    """Exhaustive sweep at max_n = 6 against the family tables.

    Relaxed mode flags exactly the certified gap string (3,3,3,3,3,3)
    and strict mode flags that row plus the two k+l = 2 boundary
    strings; every other row agrees.  The gap row is a counterexample to
    the classification, not an engine error: its negative witness is
    rebuilt coefficient by coefficient, its positive search is exhausted,
    and it lies in no family template.
    """
    relaxed = verify_classification(6, "relaxed")
    strict = verify_classification(6, "strict")
    gap = (3, 3, 3, 3, 3, 3)
    mismatches = [r.string for r in relaxed.mismatches()]
    assert mismatches == [gap], (
        f"relaxed sweep reports {mismatches}; the only expected mismatch is "
        f"the certified gap string {gap} (see "
        "tests/test_embedsearch.py::test_theorem_gap_string_witness)"
    )
    row = next(r for r in relaxed.rows if r.string == gap)
    assert (row.neg, row.pos) == (FOUND, EXHAUSTED)
    assert not any(
        (row.s1_strict, row.s1_relaxed, row.s2_strict, row.s2_relaxed, row.exceptional)
    )
    assert gap in THEOREM_GAP_STRINGS
    assert_negative_cyclic_witness(gap, embedding_witness(gap, NEGATIVE).witness.vectors)
    assert gap not in enumerate_members(6, "relaxed")
    strict_discrepancies = sorted(r.string for r in strict.mismatches())
    boundary = [canonical_form((2, 3, 2, 3, 2)), canonical_form((2, 4, 2, 2, 4, 2))]
    assert strict_discrepancies == sorted(boundary + [gap])
    report(1, "max_n=6 sweep agrees on every row but the certified gap row "
              "(3,3,3,3,3,3); strict adds only the k+l=2 rows")


def test_criterion_2_base_case_completeness():
    def strings(n):
        out = set()
        for t in itertools.product(range(2, 13), repeat=n):
            if sum(t) - 3 * n <= 0:
                out.add(canonical_form(t))
        return sorted(out)

    found2 = {
        kind: [a for a in strings(2) if find_embedding(a, kind).found]
        for kind in (NEGATIVE, POSITIVE)
    }
    assert found2[NEGATIVE] == [(2, 2)]
    assert found2[POSITIVE] == [(2, 4)]
    found3 = {
        kind: [a for a in strings(3) if find_embedding(a, kind).found]
        for kind in (NEGATIVE, POSITIVE)
    }
    assert found3[NEGATIVE] == [(2, 2, 2)]
    assert found3[POSITIVE] == [(2, 2, 5), (3, 3, 3)]
    report(2, "length 2/3 cyclic subsets are exactly {(2,2),(4,2)} and "
              "{(2,2,2),(5,2,2),(3,3,3)}")


def test_criterion_3_fixture_validation():
    expect = [
        ("chain_cycle", {"n": 4}, NEGATIVE, (2, 2, 2, 2)),
        ("chain_cycle", {"n": 7}, NEGATIVE, (2,) * 7),
        ("chain_cycle_alt", {}, NEGATIVE, (2, 2, 2, 2)),
        ("base2_negative", {}, NEGATIVE, (2, 2)),
        ("base2_positive", {}, POSITIVE, (2, 4)),
        ("base3_negative", {}, NEGATIVE, (2, 2, 2)),
        ("base3_positive_522", {}, POSITIVE, (2, 2, 5)),
        ("base3_positive_333", {}, POSITIVE, (3, 3, 3)),
        ("length5_23232", {}, POSITIVE, canonical_form((2, 3, 2, 3, 2))),
        ("length5_23532", {}, POSITIVE, canonical_form((2, 3, 5, 3, 2))),
        ("exceptional", {}, NEGATIVE, canonical_form((6, 2, 2, 2, 6, 2, 2, 2))),
    ]
    for k in range(1, 5):
        expect.append(("star", {"k": k}, POSITIVE, (3,) * (2 * k + 1)))
    for name, params, kind, string in expect:
        s = fixture(name, **params)
        assert (s.kind, s.string) == (kind, string), name
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
                assert s.kind == STANDARD and s.string in (w, tuple(reversed(w)))
    # the incidence counts cited for the two length-4 examples
    st = incidence_stats(fixture("chain_cycle_alt"))
    assert st.p_count(1) == 2 and st.p_count(3) == 2
    st = incidence_stats(fixture("chain_cycle", n=6))
    assert st.p_count(2) == 6
    report(3, "all named subsets classify to their documented kind and string")


def test_criterion_4_appendix_formulas():
    from fractions import Fraction as QQ

    def oracle_eval(entries):
        value = None
        for x in reversed(entries):
            value = QQ(x) - (0 if value is None else 1 / value)
        return value

    # bridge identities, exhaustively for length <= 6 entries <= 6, x <= 4
    for n in range(1, 7):
        for b in itertools.product(range(2, 7), repeat=n):
            c = linear_dual(b)
            for x in range(1, 5):
                first, second = dual_bridge_fractions(b, x)
                assert QQ(first.p, first.q) == oracle_eval(b + (x + 1,) + reverse(c))
                assert QQ(second.p, second.q) == oracle_eval(c + (x + 1,) + reverse(b))
    # torsion orders against the matrix trace: exhaustive for length <= 5
    # entries <= 9 and length <= 8 entries <= 4, then 4000 seeded samples
    # across the full length <= 8 entries <= 9 range

    def blocks_product(a):
        m = ((1, 0), (0, 1))
        for x in reversed(a):
            b = ((x, 1), (-1, 0))
            m = (
                (m[0][0] * b[0][0] + m[0][1] * b[1][0], m[0][0] * b[0][1] + m[0][1] * b[1][1]),
                (m[1][0] * b[0][0] + m[1][1] * b[1][0], m[1][0] * b[0][1] + m[1][1] * b[1][1]),
            )
        return m

    def check_orders(a):
        tr = sum(blocks_product(a)[i][i] for i in (0, 1))
        if max(a) < 3:
            return
        assert torsion_order(a, +1) == abs(tr - 2)
        assert torsion_order(a, -1) == abs(-tr - 2)
        assert torsion_order(a, -1) - torsion_order(a, +1) == 4

    for n in range(1, 6):
        for a in itertools.product(range(2, 10), repeat=n):
            check_orders(a)
    for n in range(6, 9):
        for a in itertools.product(range(2, 5), repeat=n):
            check_orders(a)
    rnd = random.Random(44)
    for _ in range(4000):
        check_orders(tuple(rnd.randrange(2, 10) for _ in range(rnd.randrange(6, 9))))
    # the square order formula on every S1a member with k+l <= 8
    for b, c in dual_pairs(8):
        if b == (1,) or len(b) + len(c) < 3:
            continue
        a = assemble("S1a", {"b": b, "c": c})
        order = s1a_square_order(a)
        assert order == torsion_order(a, -1) and is_square(order)
    report(4, "bridge identities, trace formulas, square orders all exact")


def test_criterion_5_duality_suite():
    # exhaustive at length <= 6 entries <= 7; seeded samples at length
    # <= 10 entries <= 9 (the full exhaustive range is astronomically
    # large; the tolerance stays exact on every instance checked)
    def check_linear(b):
        c = linear_dual(b)
        f, g = hj_eval(b), hj_eval(c)
        assert g.p == f.p and g.q == f.p - f.q
        assert linear_dual(c) == b

    def check_cyclic(a):
        if max(a) < 3:
            return
        d = cyclic_dual(a)
        assert cyclic_dual(d) == canonical_form(a)
        assert i_invariant(a) + i_invariant(d) == 0
        assert torsion_order(a, +1) == torsion_order(d, +1)
        assert torsion_order(a, -1) == torsion_order(d, -1)

    for n in range(1, 7):
        for a in itertools.product(range(2, 8), repeat=n):
            check_linear(a)
            check_cyclic(a)
    rnd = random.Random(45)
    for _ in range(3000):
        a = tuple(rnd.randrange(2, 10) for _ in range(rnd.randrange(7, 11)))
        check_linear(a)
        check_cyclic(a)
    report(5, "duals are involutions, fraction law and torsion invariance exact")


def test_criterion_6_family_algebra():
    table = enumerate_members(10, "relaxed")
    for s, tags in table.items():
        if max(s) > 12:
            continue
        assert not (tags & set(S1_TAGS) and tags & set(S2_TAGS)), s
        if tags == {"exceptional"}:
            continue
        assert -4 <= i_invariant(s) <= 0, s
        assert (i_invariant(s) == 0) == bool(tags & {"S2a", "S2b", "S2c"}), s
    # the two S2c deciders agree: exhaustively on every I = 0 string of
    # length <= 8, on every template member up to length 12, and on
    # seeded length-9..12 samples
    for s in enumerate_strings(8, 0):
        if i_invariant(s) == 0:
            assert in_family(s, "S2c") == s2c_halfreverse(s), s
    from qball.families import enumerate_family

    for s in enumerate_family("S2c", 12):
        assert s2c_halfreverse(s), s
    rnd = random.Random(46)
    checked = 0
    while checked < 300:
        n = rnd.randrange(9, 13)
        s = [2] * n
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
    # palindrome criteria against direct membership for dual pairs built
    # from strings of length <= 5 with entries <= 5
    for n in range(1, 6):
        for b in itertools.product(range(2, 6), repeat=n):
            c = linear_dual(b)
            a = assemble("S2a", {"b": b, "c": c})
            if min(a) >= 2:
                assert in_family(a, "S2c") == palindrome_criterion("S2a", b), b
            for x in range(0, 2):
                a2 = assemble("S2b", {"b": b, "c": c, "x": x})
                if min(a2) >= 2 and len(b) + len(c) >= 2:
                    assert in_family(a2, "S2c") == palindrome_criterion("S2b", b), (b, x)
    report(6, "disjointness, I bounds, decider agreement, palindrome criteria")


def test_criterion_7_contraction_suite():
    rng = random.Random(47)
    bases = [
        fixture("chain_cycle_alt"),
        fixture("base3_positive_522"),
        fixture("base3_positive_333"),
        fixture("star", k=1),
        fixture("star", k=2),
        fixture("chain_cycle", n=5),
    ]
    generated = 0
    while generated < 500:
        cur = rng.choice(bases)
        for _ in range(rng.randrange(1, 4)):
            nxt = random_expansion(cur, rng)
            if nxt is None:
                break
            cur = nxt
        sites = contraction_sites(cur)
        if not sites:
            continue
        out = contract(cur, rng.choice(sites))
        # invariants: I, kind, p_j for j != 3; p_3 drops by one
        assert out.kind == cur.kind
        assert subset_i_invariant(out) == subset_i_invariant(cur)
        p_old, p_new = incidence_stats(cur).p, incidence_stats(out).p
        assert p_new.get(3, 0) == p_old.get(3, 0) - 1
        for j in set(p_old) | set(p_new):
            if j not in (0, 3):
                assert p_new.get(j, 0) == p_old.get(j, 0)
        # expansion inverts the contraction up to basis automorphism: some
        # legal expansion reproduces the Gram matrix of the contracted
        # parent (the provenance parent, normalized by a vertex flip when
        # the merged pair met in a negative intersection)
        from oracles import expand_all, expansion_sites

        parent = out.provenance.parent_vectors
        parent_gram = gram(parent)
        # the recorded parent is cur up to one normalizing vertex flip
        assert all(v in (w, tuple(-c for c in w)) for v, w in zip(parent, cur.vectors))
        matched = False
        for esite in expansion_sites(out):
            for back in expand_all(out, esite):
                if gram(back.vectors) == parent_gram:
                    matched = True
                    break
            if matched:
                break
        assert matched, (cur.string, out.string)
        generated += 1
    report(7, f"{generated} expandable subsets: invariants and Gram round-trips exact")


def test_criterion_8_classifier_goldens():
    assert classify_surgery((3,), 0).status == BOUNDS
    assert classify_surgery((6,), 0).status == BOUNDS
    assert classify_surgery((7,), -1).status == NOT_BOUNDS
    assert classify_surgery((2, 2, 2, 3, 2), -1).status == BOUNDS
    assert classify_surgery((6, 2, 2, 2, 6, 2, 2, 2), -1).status == UNKNOWN
    for word in ("S", "-S", "T^-1*S", "-T^-1*S", "(T^-1*S)^2", "-(T^-1*S)^2"):
        assert classify_torus_bundle(Elliptic(word)).status == NOT_BOUNDS
    for n in range(-3, 4):
        assert classify_torus_bundle(Parabolic(-1, n)).status == BOUNDS
    assert correction_term((2, 2, 2, 3, 2), 1) == 2
    report(8, "all golden verdicts and the correction-term value hold")


def test_criterion_9_burau_cross_check():
    # startup self-test: (s1 s2)^3 = -Id under the representation
    from qball.classifier import BraidWord

    full_twist = burau_matrix(BraidWord(((1, 1), (2, 1)) * 3))
    assert full_twist == ((-1, 0), (0, -1))
    rnd = random.Random(48)
    for _ in range(1000):
        a = random_string(rnd, max_len=8, max_entry=9, force_big=True)
        tr_a = monodromy_matrix(a).trace
        for t in range(-3, 4):
            trace, match = burau_trace_check(a, t)
            assert match and abs(trace) == abs(tr_a), (a, t)
        trace0, _ = burau_trace_check(a, 0)
        assert abs(trace0 - 2) == homology_order(a, "even"), a
    report(9, "1000 strings x 7 twistings: traces and determinants agree")


def test_criterion_10_determinism_and_oracle():
    rep1 = verify_classification(4, "relaxed", workers=1)
    rep2 = verify_classification(4, "relaxed", workers=2)
    rep3 = verify_classification(4, "relaxed", workers=3)

    def strip(rows):  # everything except wall-clock time
        return [
            (r.string, r.i_inv, r.s1_strict, r.s1_relaxed, r.s2_strict,
             r.s2_relaxed, r.exceptional, r.neg, r.pos, r.nodes)
            for r in rows
        ]

    assert strip(rep1.rows) == strip(rep2.rows) == strip(rep3.rows)
    for n in (2, 3, 4):
        seen = set()
        for t in itertools.product(range(2, 7), repeat=n):
            seen.add(canonical_form(t))
        for a in sorted(seen):
            for kind in (NEGATIVE, POSITIVE):
                assert find_embedding(a, kind).found == naive_find(a, kind).found, (a, kind)
    report(10, "reports identical across 1/2/3 workers; naive oracle agrees n <= 4")
