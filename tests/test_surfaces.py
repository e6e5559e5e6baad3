import itertools
import math
import random

import pytest

from schottky_strata import surfaces
from schottky_strata.strata import (BudgetExceeded, component_bounds,
                                    is_admissible, is_prime)
from schottky_strata.surfaces import (
    RotationTuple,
    _rotation_codes,
    canonical_rotation,
    count_orbits,
    example2_type,
    riemann_hurwitz,
    same_orbit,
    witness_pair,
)


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
        assert same_orbit(RotationTuple(5, (1, 1, 1, 1)), RotationTuple(5, (2, 2, 2, 2)))

    def test_scaling_preserves_all_equal(self):
        assert not same_orbit(
            RotationTuple(5, (1, 1, 1, 1)), RotationTuple(5, (1, 1, 1, 2))
        )

    def test_reflexive(self):
        x = RotationTuple(7, (3, 5, 1))
        assert same_orbit(x, x)

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            same_orbit(RotationTuple(5, (1,)), RotationTuple(7, (1,)))
        with pytest.raises(ValueError):
            same_orbit(RotationTuple(5, (1,)), RotationTuple(5, (1, 1)))

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
        with pytest.raises(BudgetExceeded):
            count_orbits(11, 8)

    def test_equivalence_relation_sampled(self):
        rng = random.Random(99)
        for _ in range(10_000):
            p = rng.choice([5, 7, 11])
            m = rng.randint(1, 5)
            x = RotationTuple(p, tuple(rng.randint(1, p - 1) for _ in range(m)))
            # build y in the same orbit, z possibly unrelated
            lam = rng.randint(1, p - 1)
            perm = list(range(m))
            rng.shuffle(perm)
            y = RotationTuple(p, tuple(lam * x.entries[i] % p for i in perm))
            assert same_orbit(x, y) and same_orbit(y, x)
            z = RotationTuple(p, tuple(rng.randint(1, p - 1) for _ in range(m)))
            if same_orbit(x, z):
                assert same_orbit(y, z)  # transitivity through the canonical form

    def test_canonical_invariant_under_single_moves(self):
        rng = random.Random(5)
        for _ in range(2000):
            p = rng.choice([5, 7])
            m = rng.randint(2, 5)
            entries = [rng.randint(1, p - 1) for _ in range(m)]
            x = RotationTuple(p, tuple(entries))
            lam = rng.randint(1, p - 1)
            scaled = RotationTuple(p, tuple(lam * c % p for c in entries))
            i, j = rng.sample(range(m), 2)
            swapped = list(entries)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            swapped = RotationTuple(p, tuple(swapped))
            assert canonical_rotation(x) == canonical_rotation(scaled)
            assert canonical_rotation(x) == canonical_rotation(swapped)


class TestWitness:
    def test_lex_least_pair(self):
        x, y = witness_pair(5, 4)
        assert (x.entries, y.entries) == ((1, 1, 1, 1), (1, 1, 1, 2))
        assert not same_orbit(x, y)

    def test_transitive_case_has_none(self):
        assert witness_pair(5, 1) is None

    def test_p7_m2(self):
        pair = witness_pair(7, 2)
        assert pair is not None
        assert not same_orbit(*pair)

    @pytest.mark.parametrize("p,m", [(5, 2), (5, 5), (7, 3), (11, 3), (13, 2)])
    def test_two_least_canonical_forms(self, p, m):
        forms = sorted({
            canonical_rotation(RotationTuple(p, x))
            for x in itertools.product(range(1, p), repeat=m)
        })
        x, y = witness_pair(p, m)
        assert (x.entries, y.entries) == (forms[0], forms[1])

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_closed_form_is_the_two_least_codes(self, p):
        # against the orbit engine on every m with at most 10^6 tuples
        m = 1
        while (p - 1) ** m <= 10**6:
            codes = _rotation_codes(p, m)
            pair = witness_pair(p, m)
            if codes.size < 2:
                assert pair is None and m == 1
            else:
                assert [x.entries for x in pair] == [
                    tuple(int(code) // p**j % p for j in reversed(range(m)))
                    for code in codes[:2]]
            m += 1

    def test_large_family_needs_no_enumeration(self):
        # 12^7 tuples, past the orbit engine's default budget
        x, y = witness_pair(13, 7)
        assert (x.entries, y.entries) == ((1,) * 7, (1,) * 6 + (2,))
        assert not same_orbit(x, y)

    @pytest.mark.parametrize("p,m", [(4, 2), (3, 2), (5, 0)])
    def test_rejects_outside_the_family(self, p, m):
        with pytest.raises(ValueError):
            witness_pair(p, m)

    def test_budget_bounds_the_check(self, monkeypatch):
        # same_orbit sorts p - 1 rescales of m entries per tuple
        x, y = witness_pair(5, 250_000)
        assert y.entries[-2:] == (1, 2)
        made = []
        monkeypatch.setattr(surfaces, "RotationTuple", lambda p, entries:
                            made.append(p) or RotationTuple(p, entries))
        for p, m in [(5, 250_001), (5, 10**9), (1_000_003, 2)]:
            with pytest.raises(BudgetExceeded) as exc:
                witness_pair(p, m)
            assert exc.value.required == (p - 1) * m
        assert made == []  # refused before either tuple is made
        # every family with at most 10^7 rotation tuples is still paired
        worst = max((p - 1) * m for p in range(5, 3170) if is_prime(p)
                    for m in range(2, 13) if (p - 1) ** m <= 10**7)
        assert worst == 2 * 3162
        assert witness_pair(3163, 2) is not None


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
