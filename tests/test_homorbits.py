import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schottky_strata.homorbits import (
    PERM_INV,
    PERM_INV_SCALE,
    ActionSpec,
    BudgetExceeded,
    HomImage,
    ImageTuple,
    _sorting_network,
    bfs_orbit_count,
    canonical_codes,
    canonical_form,
    closed_form_orbit_count,
    orbit_count_tuples,
)


def reference_bfs(p, t, r, s, scaled):
    """Plain depth-first search over the image vectors a | e | tau | f with
    the move set of ``bfs_orbit_count``, one tuple at a time."""
    A, E = range(t), range(t, t + r)
    T, F = range(t + r, t + r + s), range(t + r + s, t + r + 2 * s)
    root = next(g for g in range(1, p)
                if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)

    def moved(x, changes):
        y = list(x)
        for i, value in changes:
            y[i] = value % p
        return tuple(y)

    def neighbours(x):
        for k in range(s):
            yield moved(x, [(T[k], x[T[k]] + x[F[k]])])
        if r or s:
            shift = x[E[0]] if r else x[F[0]]
            for j in A:
                yield moved(x, [(j, x[j] + shift)])
        else:
            for j in A:
                for i in A:
                    if i != j:
                        yield moved(x, [(j, x[j] + x[i])])
                yield moved(x, [(j, -x[j])])
            for j in A[:-1]:
                yield moved(x, [(j, x[j + 1]), (j + 1, x[j])])
        for j in E[:-1]:
            yield moved(x, [(j, x[j + 1]), (j + 1, x[j])])
        for j in E:
            yield moved(x, [(j, -x[j])])
        for k in range(s - 1):
            yield moved(x, [(T[k], x[T[k + 1]]), (T[k + 1], x[T[k]]),
                            (F[k], x[F[k + 1]]), (F[k + 1], x[F[k]])])
        for k in range(s):
            yield moved(x, [(F[k], -x[F[k]]), (T[k], -x[T[k]])])
        if scaled:
            yield tuple(root * c % p for c in x)

    ranges = [range(p)] * t + [range(1, p)] * r + [range(p)] * s + [range(1, p)] * s
    unseen = {x for x in itertools.product(*ranges) if any(x)}
    orbits = 0
    while unseen:
        orbits += 1
        stack = [unseen.pop()]
        while stack:
            for y in neighbours(stack.pop()):
                if y in unseen:
                    unseen.remove(y)
                    stack.append(y)
    return orbits


class TestCanonicalForm:
    def test_invert_and_sort(self):
        out = canonical_form(ImageTuple(5, (4, 2), ()), PERM_INV)
        assert out == ImageTuple(5, (1, 2), ())

    def test_scale_keeps_least_class(self):
        out = canonical_form(ImageTuple(5, (1,), ()), PERM_INV_SCALE)
        assert out == ImageTuple(5, (1,), ())

    def test_both_blocks(self):
        out = canonical_form(ImageTuple(7, (3, 3, 5), (6,)), PERM_INV)
        assert out == ImageTuple(7, (2, 3, 3), (1,))

    @given(
        p=st.sampled_from([3, 5, 7, 11]),
        data=st.data(),
        scaled=st.booleans(),
    )
    @settings(max_examples=200)
    def test_idempotent(self, p, data, scaled):
        r = data.draw(st.integers(0, 4))
        s = data.draw(st.integers(0, 3))
        u = tuple(data.draw(st.integers(1, p - 1)) for _ in range(r))
        v = tuple(data.draw(st.integers(1, p - 1)) for _ in range(s))
        action = PERM_INV_SCALE if scaled else PERM_INV
        once = canonical_form(ImageTuple(p, u, v), action)
        assert canonical_form(once, action) == once

    @pytest.mark.parametrize("p", [5, 7, 11])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_constant_on_orbits(self, p, scaled):
        # apply a random single generator move, canonical form must not change
        rng = random.Random(1234 + p)
        action = PERM_INV_SCALE if scaled else PERM_INV
        for _ in range(10_000):
            r, s = rng.randint(0, 3), rng.randint(0, 2)
            if r + s == 0:
                continue
            u = [rng.randint(1, p - 1) for _ in range(r)]
            v = [rng.randint(1, p - 1) for _ in range(s)]
            u2, v2 = list(u), list(v)
            moves = ["swap_u", "inv_u", "swap_v", "inv_v"]
            if scaled:
                moves.append("scale")
            move = rng.choice(moves)
            if move == "swap_u" and r >= 2:
                i, j = rng.sample(range(r), 2)
                u2[i], u2[j] = u2[j], u2[i]
            elif move == "inv_u" and r >= 1:
                i = rng.randrange(r)
                u2[i] = p - u2[i]
            elif move == "swap_v" and s >= 2:
                i, j = rng.sample(range(s), 2)
                v2[i], v2[j] = v2[j], v2[i]
            elif move == "inv_v" and s >= 1:
                i = rng.randrange(s)
                v2[i] = p - v2[i]
            elif move == "scale":
                lam = rng.randint(1, p - 1)
                u2 = [lam * c % p for c in u2]
                v2 = [lam * c % p for c in v2]
            a = canonical_form(ImageTuple(p, tuple(u), tuple(v)), action)
            b = canonical_form(ImageTuple(p, tuple(u2), tuple(v2)), action)
            assert a == b


class TestOrbitCountTuples:
    def test_single_elliptic_p5(self):
        assert orbit_count_tuples(5, 1, 0, PERM_INV) == 2

    def test_single_elliptic_p7(self):
        assert orbit_count_tuples(7, 1, 0, PERM_INV) == 3

    def test_scaling_merges_p5(self):
        assert orbit_count_tuples(5, 1, 0, PERM_INV_SCALE) == 1

    def test_p3_collapses(self):
        assert orbit_count_tuples(3, 4, 2, PERM_INV) == 1

    def test_empty_blocks(self):
        assert orbit_count_tuples(5, 0, 0, PERM_INV) == 1

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_matches_binomial_small(self, p):
        for r in range(4):
            for s in range(3):
                if (p - 1) ** (r + s) > 10**4:
                    continue
                assert orbit_count_tuples(
                    p, r, s, PERM_INV
                ) == closed_form_orbit_count(p, r, s), (p, r, s)

    @pytest.mark.parametrize("p", [5, 7])
    def test_scale_monotone(self, p):
        for r in range(3):
            for s in range(2):
                base = orbit_count_tuples(p, r, s, PERM_INV)
                scaled = orbit_count_tuples(p, r, s, PERM_INV_SCALE)
                assert scaled <= base
                if r == s == 0:
                    assert scaled == base == 1

    def test_agrees_with_per_tuple_canonicalisation(self):
        # the vectorised counter against a plain python set of canonical forms
        import itertools

        for p, r, s, action in [
            (5, 2, 1, PERM_INV),
            (5, 2, 1, PERM_INV_SCALE),
            (7, 2, 0, PERM_INV_SCALE),
        ]:
            forms = {
                canonical_form(ImageTuple(p, u, v), action)
                for u in itertools.product(range(1, p), repeat=r)
                for v in itertools.product(range(1, p), repeat=s)
            }
            assert orbit_count_tuples(p, r, s, action) == len(forms)

    def test_budget_error_names_required_count(self):
        with pytest.raises(BudgetExceeded) as exc:
            orbit_count_tuples(11, 8, 0, PERM_INV, budget=10**6)
        assert exc.value.required == 10**8

    # 257: residues past a byte
    @pytest.mark.parametrize("p", [5, 7, 11, 13, 257])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_matches_burnside_up_to_budget(self, p, scaled):
        action = PERM_INV_SCALE if scaled else PERM_INV
        k = 0
        while (p - 1) ** k <= 10**6:
            for r in range(k + 1):
                got = orbit_count_tuples(p, r, k - r, action, budget=10**6)
                want = closed_form_orbit_count(p, r, k - r, scaled)
                assert got == want, (p, r, k - r)
            k += 1

    def test_codes_past_two_bytes(self):
        # every unit of 70001 is its own orbit when nothing identifies them
        codes = canonical_codes(70001, 1, 0, ActionSpec(invert=False))
        assert codes.size == 70000
        assert codes[0] == 1 and codes[-1] == 70000

    def test_codes_are_sorted_distinct_and_decode_to_canonical_forms(self):
        for p, r, s, action in [
            (5, 2, 1, PERM_INV),
            (7, 1, 2, PERM_INV_SCALE),
            (7, 3, 0, ActionSpec(invert=False, global_scale=True)),
        ]:
            forms = {
                canonical_form(ImageTuple(p, u, v), action)
                for u in itertools.product(range(1, p), repeat=r)
                for v in itertools.product(range(1, p), repeat=s)
            }
            digits = [
                tuple(int(c) // p**j % p for j in reversed(range(r + s)))
                for c in canonical_codes(p, r, s, action)
            ]
            assert digits == sorted(form.u + form.v for form in forms)

    @pytest.mark.parametrize("n", range(13))
    def test_sorting_network_sorts_every_zero_one_input(self, n):
        # the 0-1 principle: a comparator network sorts all inputs iff it
        # sorts every vector of zeros and ones
        rows = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        for i, j in _sorting_network(n):
            rows[:, [i, j]] = np.sort(rows[:, [i, j]], axis=1)
        assert (np.diff(rows, axis=1) >= 0).all()


class TestBfsOrbitCount:
    def test_loxodromic_plus_elliptic(self):
        assert bfs_orbit_count(5, 1, 1, 0) == 2

    def test_scaling_merges(self):
        assert bfs_orbit_count(5, 1, 1, 0, PERM_INV_SCALE) == 1

    def test_single_pair(self):
        assert bfs_orbit_count(5, 0, 0, 1) == 2

    @pytest.mark.parametrize("p,t", [(3, 2), (5, 2), (3, 3)])
    def test_free_block_single_orbit(self, p, t):
        # two or more loxodromic images: Nielsen moves act transitively
        assert bfs_orbit_count(p, t, 0, 0) == 1

    def test_free_block_rank_one(self):
        # a single loxodromic image only admits negation; scaling collapses
        assert bfs_orbit_count(5, 1, 0, 0) == 2
        assert bfs_orbit_count(5, 1, 0, 0, PERM_INV_SCALE) == 1

    @pytest.mark.parametrize(
        "p,t,r,s",
        [(5, 0, 1, 1), (5, 1, 2, 0), (3, 1, 1, 1), (5, 0, 2, 1), (7, 0, 1, 1),
         (7, 0, 0, 3), (5, 0, 0, 4),
         # a sum of two residues needs more than one byte, then two
         (257, 0, 2, 0), (40009, 0, 1, 0)],
    )
    def test_agrees_with_canonical_count(self, p, t, r, s):
        assert bfs_orbit_count(p, t, r, s) == orbit_count_tuples(p, r, s, PERM_INV)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_agrees_with_reference_bfs(self, p, scaled):
        # every shape with t + r + s <= 4 whose reference search stays small
        action = PERM_INV_SCALE if scaled else PERM_INV
        for t, r, s in itertools.product(range(5), repeat=3):
            if t + r + s > 4 or p**t * (p - 1) ** r * (p * (p - 1)) ** s > 10**4:
                continue
            want = reference_bfs(p, t, r, s, scaled)
            assert bfs_orbit_count(p, t, r, s, action) == want, (t, r, s)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            bfs_orbit_count(11, 4, 4, 2, budget=10**5)

    @pytest.mark.parametrize("t,r,s", [(-1, 0, 0), (0, -1, 1), (1, 1, -1)])
    def test_negative_shape_rejected(self, t, r, s):
        with pytest.raises(ValueError, match="cannot be negative"):
            bfs_orbit_count(5, t, r, s)


class TestHomImageValidation:
    def test_zero_elliptic_rejected(self):
        with pytest.raises(ValueError):
            HomImage(5, e=(0,))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            HomImage(5, a=(0, 0))

    def test_pair_lengths(self):
        with pytest.raises(ValueError):
            HomImage(5, tau=(0, 0), f=(1,))
