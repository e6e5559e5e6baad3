import itertools
import math
import random

import pytest

from schottky_strata.strata import (BudgetExceeded, component_bounds,
                                    is_admissible)
from schottky_strata.surfaces import (
    count_orbits,
    example2_type,
    riemann_hurwitz,
    witness_pair,
)


def rotation_orbit(p, x):
    """The orbit of the tuple x in (Z_p^*)^m under rescaling and
    permutation, by brute force over every unit and every permutation."""
    return {tuple(lam * c % p for c in perm)
            for lam in range(1, p) for perm in itertools.permutations(x)}


def rotation_canonical(p, x):
    """The per-vector canonical form: the least sorted rescale of x."""
    return min(tuple(sorted(lam * c % p for c in x)) for lam in range(1, p))


def orbit_count_by_union_find(p, m):
    """Independent oracle: flood-fill orbits under single scalings and swaps."""
    space = list(itertools.product(range(1, p), repeat=m))
    index = {x: i for i, x in enumerate(space)}
    parent = list(range(len(space)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for x in space:
        i = index[x]
        for lam in range(2, p):
            union(i, index[tuple(lam * c % p for c in x)])
        for k in range(m - 1):
            y = list(x)
            y[k], y[k + 1] = y[k + 1], y[k]
            union(i, index[tuple(y)])
    return len({find(i) for i in range(len(space))})


def rotation_burnside(p, m):
    """Orbits of (Z_p^*)^m under rescaling and permutation: multisets of
    size m over the p - 1 units up to the cyclic scaling group, so by
    Burnside's lemma (1/(p-1)) sum_{d | gcd(p-1, m)} phi(d) C(m/d + (p-1)/d - 1, m/d)."""
    q = p - 1
    total = 0
    for d in range(1, q + 1):
        if q % d == 0 and m % d == 0:
            phi = sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1)
            total += phi * math.comb(m // d + q // d - 1, m // d)
    assert total % q == 0
    return total // q


class TestOrbits:
    def test_constant_tuples_equivalent(self):
        assert (2, 2, 2, 2) in rotation_orbit(5, (1, 1, 1, 1))

    def test_scaling_preserves_all_equal(self):
        assert rotation_orbit(5, (1, 1, 1, 1)) == {(c,) * 4 for c in range(1, 5)}
        assert (1, 1, 1, 2) not in rotation_orbit(5, (1, 1, 1, 1))

    def test_reflexive(self):
        assert (3, 5, 1) in rotation_orbit(7, (3, 5, 1))

    def test_scaling_transitive_on_length_one(self):
        for p in (5, 7, 11, 13):
            assert count_orbits(p, 1) == 1

    def test_ratio_classes_p5(self):
        assert count_orbits(5, 2) == 3

    def test_brute_force_counts(self):
        assert count_orbits(5, 4) == 10
        assert count_orbits(5, 4) >= 2

    @pytest.mark.parametrize("p,m", [(5, 2), (5, 3), (7, 2), (11, 2)])
    def test_union_find_oracle_agreement(self, p, m):
        assert count_orbits(p, m) == orbit_count_by_union_find(p, m)

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 23])
    def test_burnside_agreement_up_to_budget(self, p):
        m = 1
        while (p - 1) ** m <= 10**6:
            assert count_orbits(p, m) == rotation_burnside(p, m), m
            m += 1

    def test_budget(self):
        # 400,000 recurrence steps for e = 1, then 200,000 and 100,000 for
        # the rescales of orders 2 and 4, each charged the 16 digits of the
        # bound on the plain count: past the default budget of 10^7
        with pytest.raises(BudgetExceeded) as exc:
            count_orbits(5, 400_000)
        assert exc.value.required == 11_200_000
        assert count_orbits(11, 8) == rotation_burnside(11, 8)

    def test_equal_entries_is_an_orbit_invariant(self):
        # the invariant verify example2 checks the witness pair by
        rng = random.Random(99)
        for _ in range(10_000):
            p = rng.choice([5, 7, 11, 1_000_003])
            m = rng.randint(1, 5)
            x = tuple(rng.randint(1, p - 1) for _ in range(m))
            if rng.random() < 0.5:
                x = (x[0],) * m
            lam = rng.randint(1, p - 1)
            perm = list(range(m))
            rng.shuffle(perm)
            y = tuple(lam * x[i] % p for i in perm)
            assert (len(set(x)) == 1) == (len(set(y)) == 1)

    @pytest.mark.parametrize("p,m", [(5, 3), (7, 3), (11, 2)])
    def test_canonical_form_against_brute_force_orbits(self, p, m):
        # the rotation engine's per-vector reference, checked here so that
        # the witness tests can rest on it
        for x in itertools.product(range(1, p), repeat=m):
            orbit = rotation_orbit(p, x)
            assert rotation_canonical(p, x) == min(orbit)
            assert {rotation_canonical(p, y) for y in orbit} == {min(orbit)}


class TestWitness:
    def test_lex_least_pair(self):
        x, y = witness_pair(5, 4)
        assert (x, y) == ((1, 1, 1, 1), (1, 1, 1, 2))
        assert y not in rotation_orbit(5, x)

    def test_transitive_case_has_none(self):
        assert witness_pair(5, 1) is None

    @pytest.mark.parametrize("p,m", [(5, 2), (5, 5), (7, 2), (7, 4),
                                     (11, 3), (13, 2)])
    def test_distinct_orbits_by_brute_force(self, p, m):
        # every rescale and permutation of x keeps its entries equal, and
        # y's are not: the check verify example2 makes
        x, y = witness_pair(p, m)
        orbit = rotation_orbit(p, x)
        assert y not in orbit
        assert all(len(set(z)) == 1 for z in orbit)
        assert len(set(x)) == 1 < len(set(y))

    @pytest.mark.parametrize("p,m", [(5, 2), (5, 5), (7, 3), (11, 3), (13, 2)])
    def test_two_least_canonical_forms(self, p, m):
        forms = sorted({
            rotation_canonical(p, x)
            for x in itertools.product(range(1, p), repeat=m)
        })
        assert witness_pair(p, m) == (forms[0], forms[1])

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_closed_form_is_the_two_least_codes(self, p):
        # against the canonical forms of every tuple, on every m with at
        # most 10^6 tuples, whose number is the orbit count; a form does not
        # depend on the order of the entries, so the sorted tuples suffice
        m = 1
        while (p - 1) ** m <= 10**6:
            forms = sorted({rotation_canonical(p, x) for x in
                            itertools.combinations_with_replacement(
                                range(1, p), m)})
            assert count_orbits(p, m) == len(forms), m
            pair = witness_pair(p, m)
            if len(forms) < 2:
                assert pair is None and m == 1
            else:
                assert list(pair) == forms[:2]
            m += 1

    def test_large_family_needs_no_enumeration(self):
        # 12^7 tuples, past the orbit engine's default budget
        x, y = witness_pair(13, 7)
        assert (x, y) == ((1,) * 7, (1,) * 6 + (2,))

    @pytest.mark.parametrize("p,m", [(4, 2), (3, 2), (5, 0)])
    def test_rejects_outside_the_family(self, p, m):
        with pytest.raises(ValueError):
            witness_pair(p, m)

    def test_budget_bounds_the_written_entries(self):
        # the pair writes 2m entries, whatever p
        x, y = witness_pair(5, 500_000)
        assert y[-2:] == (1, 2)
        assert witness_pair(1_000_000_007, 2) == ((1, 1), (1, 2))
        for p, m in [(5, 500_001), (5, 10**9), (1_000_003, 500_001)]:
            with pytest.raises(BudgetExceeded) as exc:
                witness_pair(p, m)
            assert exc.value.required == 2 * m
            assert str(exc.value) == (f"enumeration requires {2 * m} witness "
                                      "entries, exceeding budget 1000000")


class TestExample2Type:
    def test_p5_m4(self):
        tup = example2_type(5, 4)
        assert (tup.g, tup.t, tup.r, tup.s) == (136, 12, 20, 0)

    def test_p5_m5(self):
        assert example2_type(5, 5).g == 176

    def test_p7_m4(self):
        tup = example2_type(7, 4)
        assert (tup.g, tup.t, tup.r) == (288, 18, 28)

    def test_family_identity_sweep(self):
        for p in (5, 7, 11, 13):
            for m in range(4, 9):
                tup = example2_type(p, m)
                assert is_admissible(tup.g, tup.p, tup.t, tup.r, tup.s)
                assert tup.g == (p - 1) * (2 * m * p - p - 1)

    def test_small_m_outside_family(self):
        # m < 4 still gives an admissible tuple, but no theorem settles it
        tup = example2_type(5, 2)
        assert is_admissible(*tup)
        assert component_bounds(*tup)[1:] == (None, "upper_only")

    def test_connected_family_bound(self):
        _m, exact, basis = component_bounds(*example2_type(5, 4))
        assert exact == 1 and basis == "example2_family"


class TestRiemannHurwitz:
    # the values against example2_type: test_acceptance, criterion 7
    @pytest.mark.parametrize("p,m", [(4, 4), (3, 4), (5, 0)])
    def test_rejects_outside_the_family(self, p, m):
        with pytest.raises(ValueError):
            riemann_hurwitz(p, m)


def riemann_hurwitz_holds(tup):
    # Euler characteristic of the degree-p quotient orbifold:
    # 2g - 2 = p(2(t+s) - 2) + 2r(p-1)
    left = 2 * tup.g - 2
    right = tup.p * (2 * (tup.t + tup.s) - 2) + 2 * tup.r * (tup.p - 1)
    return left == right


class TestOrbifoldCheck:
    def test_published_type(self):
        from schottky_strata.strata import AdmissibleTuple

        assert riemann_hurwitz_holds(AdmissibleTuple(26, 5, 6, 0, 0))

    def test_involution_type(self):
        from schottky_strata.strata import AdmissibleTuple

        assert riemann_hurwitz_holds(AdmissibleTuple(2, 2, 0, 3, 0))

    def test_all_admissible(self):
        from schottky_strata.strata import is_prime, enumerate_tuples

        for g in range(2, 61):
            for p in range(2, g + 2):
                if not is_prime(p):
                    continue
                for tup in enumerate_tuples(g, p):
                    assert riemann_hurwitz_holds(tup)
