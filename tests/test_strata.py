import json
import math

import pytest
from hypothesis import given, strategies as st

from schottky_strata.cli import run
from schottky_strata.strata import (
    AdmissibleTuple,
    closed_form_count,
    component_bounds,
    count_strata,
    dimension,
    enumerate_tuples,
    genus,
    is_admissible,
    is_prime,
)

PRIMES_TO_60 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def all_tuples_for_genus(g):
    """Admissible tuples over every possible prime (p <= g+1)."""
    out = []
    for p in range(2, g + 2):
        if is_prime(p):
            out.extend(enumerate_tuples(g, p))
    return out


class TestAdmissibility:
    def test_published_type_is_admissible(self):
        assert is_admissible(26, 5, 6, 0, 0)

    def test_reindex_erratum_triple_rejected(self):
        # the (t,r,s)=(1,0,1) reading fails the relation for g=5, p=5
        assert not is_admissible(5, 5, 1, 0, 1)

    def test_small_involution_case(self):
        assert is_admissible(2, 2, 0, 3, 0)

    def test_degenerate_triple_rejected(self):
        assert not is_admissible(2, 2, 0, 0, 0)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(g=5, p=4, t=0, r=1, s=1),  # non-prime p
            dict(g=1, p=5, t=1, r=1, s=0),  # genus too small
            dict(g=5, p=5, t=-1, r=1, s=1),  # negative entry
        ],
    )
    def test_validation_errors(self, bad):
        with pytest.raises(ValueError):
            is_admissible(**bad)

    def test_tuple_constructor_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            AdmissibleTuple(5, 5, 1, 0, 1)

    @pytest.mark.parametrize("args", [
        (5, 5, 1, True, 0),  # bool entry
        (True, 2, 0, 1, 1),  # bool genus
        (5.0, 5, 1, 1, 0),  # float genus
        (5, 5, 1, 1.0, 0),  # float entry
        (5, 5.0, 1, 1, 0),  # float prime
    ])
    def test_tuple_constructor_rejects_non_integers(self, args):
        with pytest.raises(ValueError, match="must be an integer"):
            AdmissibleTuple(*args)

    def test_tuple_is_an_immutable_tuple(self):
        tup = AdmissibleTuple(g=5, p=5, t=1, r=1, s=0)
        assert tup == (5, 5, 1, 1, 0) and isinstance(tup, tuple)
        assert (tup.g, tup.p, tup.t, tup.r, tup.s) == tuple(tup)
        assert tup.trs == (1, 1, 0) and str(tup) == "(5,5;1,1,0)"
        with pytest.raises(AttributeError):
            tup.g = 6
        with pytest.raises(AttributeError):
            tup.extra = 1
        assert tup._replace(t=0, s=1) == AdmissibleTuple(5, 5, 0, 1, 1)
        with pytest.raises(ValueError, match="not admissible"):
            tup._replace(r=2)
        with pytest.raises(ValueError, match="not admissible"):
            AdmissibleTuple._make((5, 5, 1, 0, 1))

    def test_trusted_rows_equal_validated_rows(self):
        # enumerate_tuples builds through _from_relation, skipping validation
        for p in PRIMES_TO_60[:8]:
            for g in range(2, 80):
                for tup in enumerate_tuples(g, p):
                    public = AdmissibleTuple(*tup)
                    assert type(tup) is type(public) is AdmissibleTuple
                    assert tup == public and hash(tup) == hash(public)

    @given(
        p=st.sampled_from([2, 3, 5, 7, 11]),
        t=st.integers(0, 6),
        r=st.integers(0, 6),
        s=st.integers(0, 6),
    )
    def test_relation_round_trip(self, p, t, r, s):
        g = p * (t + r + s - 1) + 1 - r
        assert genus(p, t, r, s) == g
        if g >= 2:
            assert is_admissible(g, p, t, r, s)


class TestEnumeration:
    def test_g5_p5(self):
        assert [a.trs for a in enumerate_tuples(5, 5)] == [(0, 1, 1), (1, 1, 0)]

    def test_g10_p11(self):
        assert [a.trs for a in enumerate_tuples(10, 11)] == [(0, 2, 0)]

    def test_g2_p2(self):
        assert [a.trs for a in enumerate_tuples(2, 2)] == [
            (0, 1, 1),
            (0, 3, 0),
            (1, 1, 0),
        ]

    def test_published_counts(self):
        assert count_strata(5, 10) == 3
        assert count_strata(11, 100) == 12
        assert count_strata(13, 157) == 16

    # the printed example lists are consistent with the defining relation
    # only when read in (t, s, r) order; reindex (a, b, c) -> (a, c, b)
    @pytest.mark.parametrize(
        "g,p,printed",
        [
            (5, 5, [(0, 1, 1), (1, 0, 1)]),
            (10, 5, [(0, 2, 1), (1, 1, 1), (2, 0, 1)]),
            (10, 11, [(0, 0, 2)]),
            (
                100,
                11,
                [(0, 0, 11), (0, 10, 0), (1, 9, 0), (2, 8, 0), (3, 7, 0),
                 (4, 6, 0), (5, 5, 0), (6, 4, 0), (7, 3, 0), (8, 2, 0),
                 (9, 1, 0), (10, 0, 0)],
            ),
            (
                157,
                13,
                [(0, 1, 13), (0, 13, 0), (1, 0, 13), (1, 12, 0), (2, 11, 0),
                 (3, 10, 0), (4, 9, 0), (5, 8, 0), (6, 7, 0), (7, 6, 0),
                 (8, 5, 0), (9, 4, 0), (10, 3, 0), (11, 2, 0), (12, 1, 0),
                 (13, 0, 0)],
            ),
        ],
    )
    def test_published_lists_after_reindex(self, g, p, printed):
        expected = {(a, c, b) for a, b, c in printed}
        assert {t.trs for t in enumerate_tuples(g, p)} == expected

    def test_sorted_lexicographically(self):
        for g in range(2, 40):
            for p in (2, 3, 5):
                trs = [a.trs for a in enumerate_tuples(g, p)]
                assert trs == sorted(trs)

    def test_count_equals_enumeration_length(self):
        for g in range(2, 80):
            for p in PRIMES_TO_60:
                assert count_strata(p, g) == len(enumerate_tuples(g, p)), (g, p)

    def test_count_matches_loop_over_totals(self):
        # the per-total loop count_strata ran before its closed form
        def loop_count(p, g):
            count = 0
            for total in range((g + p - 1) // p + 1):
                if (g - p * total) % (p - 1) == 0 and g - 1 - p * (total - 1) >= 0:
                    count += total + 1
            return count

        for p in PRIMES_TO_60:
            for g in range(2, 2000):
                assert count_strata(p, g) == loop_count(p, g), (p, g)

    def test_matches_brute_force_solve(self):
        # g - 1 = p(t + s - 1) + r(p - 1) with the other entries set to 0
        # bounds each entry; the loops run in (t, r, s) order, so equality
        # also checks the sort
        for p in PRIMES_TO_60:
            for g in range(2, 60):
                ts_max = (g - 1) // p + 1
                r_max = (g - 1 + p) // (p - 1)
                solved = [
                    AdmissibleTuple(g, p, t, r, s)
                    for t in range(ts_max + 1)
                    for r in range(r_max + 1)
                    for s in range(ts_max + 1)
                    if g == p * (t + r + s - 1) + 1 - r
                ]
                assert enumerate_tuples(g, p) == solved, (g, p)


class TestClosedForm:
    def test_examples(self):
        assert closed_form_count(2, 2) == 3
        assert closed_form_count(3, 2) == 1
        assert closed_form_count(2, 3) == 6

    def test_rejects_other_primes(self):
        with pytest.raises(ValueError):
            closed_form_count(5, 10)

    @pytest.mark.parametrize("p", [2, 3])
    def test_agrees_with_enumeration(self, p):
        for g in range(2, 201):
            assert closed_form_count(p, g) == count_strata(p, g), (p, g)


def m_count(tup):
    return component_bounds(*tup)[0]


class TestMCount:
    def test_p2_always_one(self):
        for tup in enumerate_tuples(9, 2):
            assert m_count(tup) == 1

    def test_p3_always_one(self):
        for tup in enumerate_tuples(9, 3):
            assert m_count(tup) == 1

    def test_binomial_cases(self):
        assert m_count(AdmissibleTuple(5, 5, 0, 1, 1)) == 4
        assert m_count(AdmissibleTuple(13, 7, 0, 2, 1)) == 18

    def test_independent_of_t(self):
        # same (p, r, s), different t
        assert m_count(AdmissibleTuple(5, 5, 0, 1, 1)) == m_count(
            AdmissibleTuple(10, 5, 1, 1, 1)
        )

    def test_r_s_swap_symmetry(self):
        # exchanging the r- and s-blocks swaps the binomial factors, so the
        # product is unchanged (the genus adjusts to keep admissibility)
        for g in range(2, 40):
            for tup in all_tuples_for_genus(g):
                g2 = tup.p * (tup.t + tup.s + tup.r - 1) + 1 - tup.s
                if g2 < 2:
                    continue
                swapped = AdmissibleTuple(g2, tup.p, tup.t, tup.s, tup.r)
                assert m_count(swapped) == m_count(tup)

    def test_exact_binomials(self):
        tup = AdmissibleTuple(5 * (0 + 30 + 0 - 1) + 1 - 30, 5, 0, 30, 0)
        assert m_count(tup) == math.comb(31, 1)


class TestDimension:
    def test_published_example(self):
        assert dimension(26, 5, 6, 0, 0) == 15

    @pytest.mark.parametrize("g", [2, 3, 10, 25])
    def test_hyperelliptic_dimension(self, g):
        assert dimension(*AdmissibleTuple(g, 2, 0, g + 1, 0)) == 2 * g - 1

    def test_rank_two_case(self):
        assert dimension(2, 2, 0, 3, 0) == 3

    def test_integrality_and_formula(self):
        for g in range(2, 101):
            for tup in all_tuples_for_genus(g):
                num = 3 * tup.g - 3 - tup.r * (tup.p - 3)
                assert num % tup.p == 0
                d = dimension(*tup)
                assert d == 3 * (tup.t + tup.s - 1) + 2 * tup.r
                assert d >= 0

    def test_hyperelliptic_maximality(self):
        for g in range(2, 51):
            top = dimension(g, 2, 0, g + 1, 0)
            assert top == max(dimension(*tup) for tup in all_tuples_for_genus(g))

    def test_non_integral_quotient_asserts(self):
        # (3, 5; 0, 1, 0) breaks the defining relation: 3g - 3 - r(p-3) = 4
        with pytest.raises(AssertionError, match="not an integer: 4/5"):
            dimension(3, 5, 0, 1, 0)


class TestComponentBounds:
    def test_p2_connected(self):
        for tup in enumerate_tuples(7, 2):
            _m, exact, basis = component_bounds(*tup)
            assert exact == 1 and basis == "theorem_case_1"

    def test_case3(self):
        assert component_bounds(5, 5, 0, 1, 1) == (4, 4, "theorem_case_3")

    def test_free_case_connected(self):
        _m, exact, basis = component_bounds(6, 5, 2, 0, 0)
        assert exact == 1 and basis == "theorem_case_1"

    def test_fiber_product_family(self):
        # M = C(20 + 1, 20) * C(0 + 1, 0) with h = 2 classes
        assert component_bounds(136, 5, 12, 20, 0) == (21, 1, "example2_family")

    def test_upper_only_reports_no_exact(self):
        # r = p, s = 0, t not of the fiber-product shape
        tup = AdmissibleTuple(5 * (0 + 5 + 0 - 1) + 1 - 5, 5, 0, 5, 0)
        _m, exact, basis = component_bounds(*tup)
        assert exact is None and basis == "upper_only"

    def test_exact_never_exceeds_upper(self):
        for g in range(2, 80):
            for tup in all_tuples_for_genus(g):
                m, exact, _basis = component_bounds(*tup)
                if exact is not None:
                    assert 1 <= exact <= m


class TestInvariants:
    def test_congruence_equivalence(self):
        for g in range(2, 101):
            for tup in all_tuples_for_genus(g):
                assert ((tup.g - 1) % tup.p == 0) == (tup.r % tup.p == 0)

    def test_riemann_hurwitz(self):
        for g in range(2, 101):
            for tup in all_tuples_for_genus(g):
                assert 2 * tup.g - 2 == tup.p * (2 * (tup.t + tup.s) - 2) + 2 * tup.r * (
                    tup.p - 1
                )

    def test_t_s_swap_preserves_admissibility(self):
        for g in range(2, 60):
            for tup in all_tuples_for_genus(g):
                assert is_admissible(tup.g, tup.p, tup.s, tup.r, tup.t)


def report_rows(g, p):
    """The ``report`` rows of the one-genus window g..g."""
    code, _, text = run(["report", "--p", str(p), "--g-min", str(g),
                         "--g-max", str(g)])
    assert code == 0
    return json.loads(text)["results"]["reports"]


class TestStratumReport:
    def test_g5_p5(self):
        rows = report_rows(5, 5)
        assert [row["m_count"] for row in rows] == [4, 2]

    def test_g10_p11(self):
        rows = report_rows(10, 11)
        assert len(rows) == 1
        assert rows[0]["m_count"] == math.comb(6, 4) * math.comb(4, 4) == 15

    def test_g2_p2(self):
        rows = report_rows(2, 2)
        assert len(rows) == 3
        assert all(row["m_count"] == 1 for row in rows)

    def test_fields_consistent(self):
        for row in report_rows(20, 3):
            tup = AdmissibleTuple(**row["tuple"])
            m, exact, basis = component_bounds(*tup)
            assert row["m_count"] == m
            assert row["dimension"] == dimension(*tup)
            assert row["components"] == {"upper": m, "exact": exact, "basis": basis}
