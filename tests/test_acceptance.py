"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated runtime budget.  Run with ``pytest -s`` to see the
per-criterion lines.
"""

import math
import random
import time
from contextlib import contextmanager

from schottky_strata.strata import (
    AdmissibleTuple,
    closed_form_count,
    component_bounds,
    count_strata,
    dimension,
    enumerate_tuples,
    is_prime,
)
from schottky_strata.homorbits import (
    PERM_INV,
    PERM_INV_SCALE,
    HomImage,
    bfs_orbit_count,
    orbit_count_tuples,
)
from schottky_strata import freegroup as fg
from schottky_strata.cyclic_schottky import (
    KHom,
    build_spec,
    kernel_membership,
    kernel_presentation,
    normalized_homs,
)
from schottky_strata import moebius as mo
from schottky_strata import surfaces as sf


@contextmanager
def budget(name, seconds):
    start = time.monotonic()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.monotonic() - start
        status = "FAIL" if failed else "PASS"
        print(f"[{status}] {name} ({elapsed:.2f}s / budget {seconds}s)")
        if not failed:
            assert elapsed < seconds, f"{name} exceeded its {seconds}s budget"


def test_criterion_1_published_counts_and_lists():
    with budget("criterion 1: published stratum counts and triple lists", 1.0):
        assert count_strata(5, 5) == 2
        assert count_strata(5, 10) == 3
        assert count_strata(11, 10) == 1
        assert count_strata(11, 100) == 12
        assert count_strata(13, 157) == 16
        # printed lists are in (t, s, r) order; reindex to (t, r, s)
        published = {
            (5, 5): [(0, 1, 1), (1, 0, 1)],
            (10, 5): [(0, 2, 1), (1, 1, 1), (2, 0, 1)],
            (10, 11): [(0, 0, 2)],
            (100, 11): [(0, 0, 11), (0, 10, 0), (1, 9, 0), (2, 8, 0),
                        (3, 7, 0), (4, 6, 0), (5, 5, 0), (6, 4, 0), (7, 3, 0),
                        (8, 2, 0), (9, 1, 0), (10, 0, 0)],
            (157, 13): [(0, 1, 13), (0, 13, 0), (1, 0, 13), (1, 12, 0),
                        (2, 11, 0), (3, 10, 0), (4, 9, 0), (5, 8, 0),
                        (6, 7, 0), (7, 6, 0), (8, 5, 0), (9, 4, 0),
                        (10, 3, 0), (11, 2, 0), (12, 1, 0), (13, 0, 0)],
        }
        for (g, p), printed in published.items():
            expected = {(a, c, b) for a, b, c in printed}
            assert {t.trs for t in enumerate_tuples(g, p)} == expected, (g, p)


def test_criterion_2_closed_forms():
    with budget("criterion 2: closed forms for p=2,3 over g in [2,200]", 1.0):
        for g in range(2, 201):
            assert count_strata(2, g) == closed_form_count(2, g), g
            assert count_strata(3, g) == closed_form_count(3, g), g


def test_criterion_3_oracle_formula_equivalence():
    with budget("criterion 3: orbit oracle equals the binomial count", 60.0):
        checked = 0
        for p in (3, 5, 7, 11):
            half = (p - 3) // 2
            max_k = int(math.log(10**6, p - 1)) + 1 if p > 2 else 0
            for r in range(max_k + 1):
                for s in range(max_k + 1):
                    if (p - 1) ** (r + s) > 10**6:
                        continue
                    expected = math.comb(r + half, half) * math.comb(s + half, half)
                    # cross-check against M on a realising tuple
                    g = p * (2 + r + s - 1) + 1 - r
                    assert expected == component_bounds(g, p, 2, r, s)[0]
                    got = orbit_count_tuples(p, r, s, PERM_INV, budget=10**6)
                    assert got == expected, (p, r, s, got, expected)
                    checked += 1
        print(f"    ({checked} (p, r, s) cases)")
        assert checked >= 300


def test_criterion_4_bfs_move_set_consistency():
    with budget("criterion 4: BFS orbit counts match the canonical counts", 60.0):
        p = 5
        instances = []
        for t in range(2):
            for r in range(3):
                for s in range(2):
                    g = p * (t + r + s - 1) + 1 - r
                    if g >= 2:
                        instances.append((t, r, s))
        assert len(instances) == 8
        for t, r, s in instances:
            assert r + s > 0
            m = component_bounds(p * (t + r + s - 1) + 1 - r, p, t, r, s)[0]
            plain = bfs_orbit_count(p, t, r, s, PERM_INV)
            scaled = bfs_orbit_count(p, t, r, s, PERM_INV_SCALE)
            assert plain == m, (t, r, s, plain, m)
            assert scaled <= m, (t, r, s, scaled, m)
        # scaling strictly merges classes on (t, r, s) = (1, 1, 0)
        assert bfs_orbit_count(p, 1, 1, 0, PERM_INV) == 2
        assert bfs_orbit_count(p, 1, 1, 0, PERM_INV_SCALE) == 1


def test_criterion_5_example1_suite():
    with budget("criterion 5: worked example 1 verification suite", 1.0):
        report = fg.verify_example1()
        assert report["passed"], [c for c in report["checks"] if not c["pass"]]
        by_name = {c["name"]: c["pass"] for c in report["checks"]}
        for name in (
            "gamma_index_rank",
            "k1_index_rank",
            "k1_generates",
            "k2_index_rank",
            "k2_generates",
            "psi_c_equals_d",
            "psi_preserves_gamma",
            "gamma_listed_members",
        ):
            assert by_name[name], name


def test_criterion_6_nielsen_schreier_law():
    with budget("criterion 6: Nielsen-Schreier law on 100 random homs", 10.0):
        rng = random.Random(20240229)
        done = 0
        while done < 100:
            k = rng.randint(1, 4)
            p = rng.choice([2, 3, 5, 7])
            images = [(rng.randrange(p),) for _ in range(k)]
            if all(v == (0,) for v in images):
                continue
            phi = fg.AbelianHom(k, (p,), tuple(images))
            gens = fg.schreier_kernel(phi)
            assert len(gens) == 1 + p * (k - 1)
            idx, rank = fg.index_and_rank(fg.fold(gens))
            assert idx == p and rank == 1 + p * (k - 1)
            done += 1


def test_criterion_7_example2_suite():
    with budget("criterion 7: fiber-product family suite", 10.0):
        for p in (5, 7, 11, 13):
            for m in range(1, 9):
                tup = sf.example2_type(p, m)
                g = (p - 1) * (2 * m * p - p - 1)
                assert tup.g == g
                assert g == p * (tup.t + tup.r - 1) + 1 - tup.r
        x, y = sf.witness_pair(5, 4)
        assert not sf.same_orbit(x, y)
        rng = random.Random(424242)
        for m in (1, 2):
            for _ in range(5):
                curve = sf.random_curve(5, m, rng)
                rep = sf.fixed_point_check(curve, tolerance=1e-9)
                assert rep["passed"], rep["max_residual"]


def _all_admissible_up_to(g_max):
    for g in range(2, g_max + 1):
        for p in range(2, g + 2):
            if is_prime(p):
                yield from enumerate_tuples(g, p)


def test_criterion_8_structural_numeric_invariants():
    with budget("criterion 8: structural and numeric invariants", 120.0):
        for tup in _all_admissible_up_to(100):
            d = dimension(*tup)
            assert d == 3 * (tup.t + tup.s - 1) + 2 * tup.r
            assert (3 * tup.g - 3 - tup.r * (tup.p - 3)) % tup.p == 0
            assert ((tup.g - 1) % tup.p == 0) == (tup.r % tup.p == 0)

        cases = [
            (AdmissibleTuple(2, 2, 0, 3, 0), HomImage(2, e=(1, 1, 1))),
            (AdmissibleTuple(5, 5, 1, 1, 0), HomImage(5, a=(0,), e=(1,))),
            (AdmissibleTuple(26, 5, 6, 0, 0), HomImage(5, a=(1, 0, 0, 0, 0, 0))),
        ]
        for tup, himg in cases:
            mg = mo.build_matrix_group(tup)
            for sym, m in mg.matrices.items():
                if sym[0] in ("e", "f"):
                    assert mo.order_check(m, tup.p), (tup, sym)
                    assert mo.classify(m) is mo.MobiusClass.ELLIPTIC
                else:
                    assert mo.classify(m) is mo.MobiusClass.LOXODROMIC
                    assert abs(m.trace()) > 2 + 1e-6
            for k in range(1, tup.s + 1):
                defect = mo.commutator_defect(
                    mg.matrices[("t", k)], mg.matrices[("f", k)]
                )
                assert defect <= mo._COMMUTATION_TOL
            phi = KHom(mg.spec, himg)
            rep = mo.purely_loxodromic_sample(mg, phi, max_syllables=4)
            assert rep["passed"], (tup, rep["violations"][:3])
            assert rep["n_words"] > 0


def test_criterion_9_kernel_presentation_cardinality():
    with budget("criterion 9: kernel presentations of size exactly g", 60.0):
        run_count = 0
        for p in (2, 3, 5):
            for t in range(3):
                for r in range(4):
                    for s in range(3):
                        g = p * (t + r + s - 1) + 1 - r
                        if g < 2:
                            continue
                        spec = build_spec(AdmissibleTuple(g, p, t, r, s))
                        for phi in normalized_homs(spec):
                            words = kernel_presentation(phi)
                            assert len(words) == g, (g, p, t, r, s)
                            assert all(kernel_membership(phi, w) for w in words)
                            run_count += 1
        print(f"    ({run_count} (tuple, hom) pairs)")
        assert run_count > 5000
