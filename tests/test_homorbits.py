import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schottky_strata import homorbits
from schottky_strata.homorbits import (
    PERM_INV,
    PERM_INV_SCALE,
    ActionSpec,
    HomImage,
    _sorting_network,
    bfs_orbit_count,
    canonical_codes,
    closed_form_orbit_count,
    orbit_count_tuples,
)
from schottky_strata.strata import BudgetExceeded


def reference_neighbours(p, t, r, s, scaled):
    """The move set of ``bfs_orbit_count`` on one image vector a | e | tau
    | f at a time: the function yielding its image under each move."""
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
            for j in A:
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

    return neighbours


def reference_bfs(p, t, r, s, scaled):
    """Plain depth-first search over the image vectors with the moves of
    ``reference_neighbours``, one tuple at a time."""
    neighbours = reference_neighbours(p, t, r, s, scaled)
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


def canonical_form(p, u, v, action=PERM_INV):
    """Per-vector canonical form (u, v) of one pair of unit vectors: each
    block sorted, after replacing each entry by min(c, p-c) under invert;
    with global_scale the lexicographically least result over all unit
    multiples, applied to both blocks at once."""
    best = None
    for lam in range(1, p) if action.global_scale else (1,):
        cand = []
        for block in (u, v):
            mapped = [lam * c % p for c in block]
            if action.invert:
                mapped = [min(c, p - c) for c in mapped]
            cand.append(tuple(sorted(mapped)))
        if best is None or cand < best:
            best = cand
    return tuple(best)


def reference_codes(p, r, s, action):
    """Sorted distinct codes of ``canonical_form`` over every vector."""
    codes = set()
    for u in itertools.product(range(1, p), repeat=r):
        for v in itertools.product(range(1, p), repeat=s):
            form_u, form_v = canonical_form(p, u, v, action)
            digits = form_u + form_v
            codes.add(sum(c * p**j for j, c in enumerate(reversed(digits))))
    return sorted(codes)


class TestCanonicalForm:
    def test_invert_and_sort(self):
        assert canonical_form(5, (4, 2), (), PERM_INV) == ((1, 2), ())

    def test_scale_keeps_least_class(self):
        assert canonical_form(5, (1,), (), PERM_INV_SCALE) == ((1,), ())

    def test_both_blocks(self):
        assert canonical_form(7, (3, 3, 5), (6,), PERM_INV) == (
            (2, 3, 3), (1,))

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
        once = canonical_form(p, u, v, action)
        assert canonical_form(p, *once, action) == once

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
            a = canonical_form(p, u, v, action)
            b = canonical_form(p, u2, v2, action)
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

    def test_budget_error_names_required_count(self):
        # 10^8 vectors in the one block: refused before its C(12, 8) classes
        # are counted
        with pytest.raises(BudgetExceeded) as exc:
            orbit_count_tuples(11, 8, 0, PERM_INV, budget=10**6)
        assert exc.value.required == 10**8
        assert str(exc.value) == ("enumeration requires 100000000 block "
                                  "vectors, exceeding budget 1000000")

    # 257: residues past a byte
    @pytest.mark.parametrize("p", [5, 7, 11, 13, 257])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_matches_burnside_up_to_budget(self, p, scaled):
        action = PERM_INV_SCALE if scaled else PERM_INV
        k = 0
        while (p - 1) ** k <= 10**6:
            for r in range(k + 1):
                got = orbit_count_tuples(p, r, k - r, action)
                want = closed_form_orbit_count(p, r, k - r, scaled)
                assert got == want, (p, r, k - r)
            k += 1

    def test_codes_past_two_bytes(self):
        # every unit of 70001 is its own orbit when nothing identifies them
        codes = canonical_codes(70001, 1, 0, ActionSpec(invert=False))
        assert codes.size == 70000
        assert codes[0] == 1 and codes[-1] == 70000

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    @pytest.mark.parametrize("invert", [True, False])
    @pytest.mark.parametrize("scale", [False, True])
    def test_every_split_matches_per_vector_canonical_forms(self, p, invert, scale):
        # the block-by-block engine against canonical_form over every vector,
        # empty blocks included; every shape here has int32 codes
        action = ActionSpec(invert, scale)
        k = 0
        while (p - 1) ** k <= 4000:
            for r in range(k + 1):
                codes = canonical_codes(p, r, k - r, action)
                assert codes.dtype == np.int32
                want = reference_codes(p, r, k - r, action)
                assert codes.tolist() == want, (r, k - r)
            k += 1

    @pytest.mark.parametrize("scaled", [False, True])
    def test_past_the_enumeration_of_whole_vectors(self, scaled):
        # 4^12 = 16.7 M vectors (u, v), but only 4^6 per block: answered at
        # the default budget
        action = PERM_INV_SCALE if scaled else PERM_INV
        got = orbit_count_tuples(5, 6, 6, action)
        assert got == closed_form_orbit_count(5, 6, 6, scaled)

    @pytest.mark.parametrize("p,r,s", [(5, 6, 6), (7, 3, 0), (11, 2, 3),
                                       (13, 0, 4), (3, 5, 5)])
    @pytest.mark.parametrize("invert", [True, False])
    @pytest.mark.parametrize("scale", [False, True])
    def test_budget_counts_block_vectors_and_class_pairs(self, p, r, s,
                                                         invert, scale):
        # the grid has one cell per class pair, which is one plain code each
        action = ActionSpec(invert, scale)
        grid = canonical_codes(p, r, s, ActionSpec(invert)).size
        work = sum((p - 1) ** w for w in (r, s) if w) + grid
        assert canonical_codes(p, r, s, action, budget=work).size <= grid
        with pytest.raises(BudgetExceeded) as exc:
            canonical_codes(p, r, s, action, budget=work - 1)
        assert (exc.value.required, exc.value.budget) == (work, work - 1)
        assert str(exc.value) == (f"enumeration requires {work} block vectors "
                                  f"and class pairs, exceeding budget {work - 1}")

    def test_refuses_before_any_array(self, monkeypatch):
        made = []
        for name in ("arange", "empty", "zeros"):
            real = getattr(np, name)
            monkeypatch.setattr(np, name, lambda *a, real=real, **k:
                                made.append(a) or real(*a, **k))
        # 2 * 4^6 vectors and 7^2 class pairs; then 3^40 codes past 2^63
        with pytest.raises(BudgetExceeded):
            canonical_codes(5, 6, 6, budget=8240)
        with pytest.raises(BudgetExceeded) as exc:
            canonical_codes(3, 40, 0, budget=10**30)
        assert (exc.value.required, exc.value.budget) == (3**40, 2**63)
        assert made == []
        assert canonical_codes(5, 6, 6, budget=8241).size == 49 and made

    def test_codes_widen_with_the_code_space(self):
        # the one orbit's code (3^20 - 1) / 2 fits in 31 bits, but codes are
        # int64 whenever p^(r+s) does not
        codes = canonical_codes(3, 10, 10)
        assert codes.dtype == np.int64
        assert codes.tolist() == [(3**20 - 1) // 2]

    @pytest.mark.parametrize("r,s,message", [
        (-1, 0, "r must be >= 0, got -1"),
        (0, -2, "s must be >= 0, got -2"),
        (1.5, 0, "r must be an integer, got 1.5"),
        (1, 2.0, "s must be an integer, got 2.0"),
        (True, 0, "r must be an integer, got True"),
        (0, False, "s must be an integer, got False"),
    ])
    def test_shape_is_checked_as_strata_checks_it(self, r, s, message):
        # one message for a bad r or s, whichever count is asked
        for count in (lambda: orbit_count_tuples(5, r, s, PERM_INV),
                      lambda: canonical_codes(5, r, s, PERM_INV_SCALE),
                      lambda: closed_form_orbit_count(5, r, s, False),
                      lambda: closed_form_orbit_count(5, r, s, True)):
            with pytest.raises(ValueError) as exc:
                count()
            assert str(exc.value) == message

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

    @pytest.mark.parametrize("p,t,r,s", [(7, 1, 2, 1), (11, 0, 2, 1)])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_agrees_with_canonical_count_past_ten_thousand_states(
            self, p, t, r, s, scaled):
        # 10,584 and 11,000 states
        action = PERM_INV_SCALE if scaled else PERM_INV
        assert bfs_orbit_count(p, t, r, s, action) == orbit_count_tuples(
            p, r, s, action)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_agrees_with_reference_bfs(self, p, scaled):
        # every shape with t + r + s <= 4 whose reference search stays small
        action = PERM_INV_SCALE if scaled else PERM_INV
        for t, r, s in itertools.product(range(5), repeat=3):
            if t + r + s > 4 or p**t * (p - 1) ** r * (p * (p - 1)) ** s > 10**4:
                continue
            want = reference_bfs(p, t, r, s, scaled)
            assert bfs_orbit_count(p, t, r, s, action) == want, (t, r, s)

    @pytest.mark.parametrize("p,t,r,s", [(5, 1, 2, 1), (3, 3, 0, 0),
                                         (7, 0, 0, 2), (5, 2, 1, 0)])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_each_move_is_built_once(self, p, t, r, s, scaled, monkeypatch):
        # one walk of the move generator, one target per move of the
        # reference move set
        real, calls, built = homorbits._move_targets, [], []

        def counting(*args):
            calls.append(args[1:])
            for target in real(*args):
                built.append(target.size)
                yield target

        monkeypatch.setattr(homorbits, "_move_targets", counting)
        action = PERM_INV_SCALE if scaled else PERM_INV
        assert bfs_orbit_count(p, t, r, s, action) == reference_bfs(
            p, t, r, s, scaled)
        total = p**t * (p - 1) ** r * (p * (p - 1)) ** s
        moves = reference_neighbours(p, t, r, s, scaled)
        assert calls == [(p, t, r, s, scaled)]
        assert built == [total] * sum(1 for _ in moves((1,) * (t + r + 2 * s)))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_each_target_is_the_reference_image(self, p, scaled):
        # state by state, in the order of the reference move set, on every
        # shape with t + r + s <= 4 and at most 10^4 states: a wrong target
        # that kept the orbits would pass the counting tests
        for t, r, s in itertools.product(range(5), repeat=3):
            total = p**t * (p - 1) ** r * (p * (p - 1)) ** s
            if t + r + s > 4 or total > 10**4:
                continue
            ranges = ([range(p)] * t + [range(1, p)] * r + [range(p)] * s
                      + [range(1, p)] * s)
            strides = [math.prod(len(x) for x in ranges[c + 1:])
                       for c in range(len(ranges))]
            neighbours = reference_neighbours(p, t, r, s, scaled)
            # images[i, m] is the image of state i under move m
            images = [list(neighbours(x)) for x in itertools.product(*ranges)]
            images = np.array(images, dtype=int).reshape(
                total, len(images[0]), len(ranges))
            digits = images - [x.start for x in ranges]
            want = (digits @ np.array(strides, dtype=int)).T
            index = np.arange(total, dtype=np.int32)
            got = list(homorbits._move_targets(index, p, t, r, s, scaled))
            assert len(got) == len(want), (t, r, s)
            for move, (target, image) in enumerate(zip(got, want)):
                assert target.dtype == index.dtype, (t, r, s, move)
                assert np.array_equal(target, image), (t, r, s, move)

    @pytest.mark.parametrize("p,t,r,s", [(3, 8, 4, 0), (5, 5, 1, 1)])
    def test_memory_is_a_few_arrays_of_the_states(self, p, t, r, s):
        # 104,976 and 250,000 states of four bytes: index, labels, one
        # target and the temporaries of one hooking round
        total = p**t * (p - 1) ** r * (p * (p - 1)) ** s
        want = bfs_orbit_count(p, t, r, s)  # numpy's first-use allocations
        tracemalloc.start()
        try:
            got = bfs_orbit_count(p, t, r, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak <= 32 * total, peak / total

    def test_budget(self, monkeypatch):
        with pytest.raises(BudgetExceeded):
            bfs_orbit_count(11, 4, 4, 2, budget=10**5)
        # 5 * 4 * 5 * 4 states of (5; 1, 1, 1), refused before labelling
        real, labelled = homorbits._orbit_count, []
        monkeypatch.setattr(homorbits, "_orbit_count", lambda total, moves:
                            labelled.append(total) or real(total, moves))
        with pytest.raises(BudgetExceeded) as exc:
            bfs_orbit_count(5, 1, 1, 1, budget=399)
        assert (exc.value.required, labelled) == (400, [])
        assert bfs_orbit_count(5, 1, 1, 1, budget=400) and labelled == [400]

    @pytest.mark.parametrize("t,r,s,message", [
        (-1, 0, 0, "t must be >= 0, got -1"),
        (0, -1, 1, "r must be >= 0, got -1"),
        (1, 1, -1, "s must be >= 0, got -1"),
        (1.5, 0, 0, "t must be an integer, got 1.5"),
    ])
    def test_shape_checked_before_the_budget(self, t, r, s, message,
                                             monkeypatch):
        # the shape is checked before any power is formed from it: a
        # negative exponent once made float powers, then itertools' message
        formed = []
        monkeypatch.setattr(homorbits, "within_budget_of_powers",
                            lambda *args: formed.append(args))
        with pytest.raises(ValueError) as exc:
            bfs_orbit_count(5, t, r, s)
        assert (str(exc.value), formed) == (message, [])

    @pytest.mark.parametrize("scale", [False, True])
    def test_action_without_inversion_refused(self, scale):
        # the move set always inverts the e-block and the pairs: on
        # (5; 0, 1, 1) it would give 4 orbits where the canonical count,
        # which does not invert, gives 16
        assert orbit_count_tuples(5, 1, 1, ActionSpec(False)) == 16
        with pytest.raises(ValueError, match="without it is not supported"):
            bfs_orbit_count(5, 0, 1, 1, ActionSpec(False, scale))


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
