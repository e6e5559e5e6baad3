import cmath
import math
import random

import pytest

from schottky_strata.homorbits import HomImage
from schottky_strata.strata import AdmissibleTuple
from schottky_strata.cyclic_schottky import KHom, kernel_sample
from schottky_strata.moebius import (
    INF,
    MatrixGroupSpec,
    MobiusClass,
    MobiusMap,
    Tolerances,
    _COMMUTATION_TOL,
    build_matrix_group,
    classify,
    commutator_defect,
    fixed_points,
    matrix_group_defects,
    order_check,
    purely_loxodromic_sample,
)


def rot(p):
    ph = cmath.exp(1j * math.pi / p)
    return MobiusMap(ph, 0, 0, 1 / ph, normalize=False)


def random_unimodular(rng):
    while True:
        a, b, c = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
        if abs(a) > 0.2:
            d = (1 + b * c) / a
            return MobiusMap(a, b, c, d)


class TestClassify:
    def test_diagonal_loxodromic(self):
        assert classify(MobiusMap(2, 0, 0, 0.5)) is MobiusClass.LOXODROMIC

    def test_translation_parabolic(self):
        assert classify(MobiusMap(1, 1, 0, 1)) is MobiusClass.PARABOLIC

    def test_order5_rotation_elliptic(self):
        assert classify(rot(5)) is MobiusClass.ELLIPTIC

    def test_identity_both_signs(self):
        assert classify(MobiusMap(1, 0, 0, 1, normalize=False)) is MobiusClass.IDENTITY
        assert classify(MobiusMap(-1, 0, 0, -1, normalize=False)) is MobiusClass.IDENTITY

    def test_conjugation_invariance(self):
        rng = random.Random(17)
        samples = [
            MobiusMap(2, 0, 0, 0.5),
            rot(5),
            rot(7),
            MobiusMap(1, 1, 0, 1),
            MobiusMap(3 + 1j, 1, 0, 1 / (3 + 1j)),
        ]
        for _ in range(1000):
            u = random_unimodular(rng)
            m = rng.choice(samples)
            conj = u * m * u.inverse()
            assert classify(conj) is classify(m)


class TestFixedPoints:
    def test_diagonal(self):
        fp = fixed_points(MobiusMap(2, 0, 0, 0.5))
        assert fp.attracting == INF
        assert fp.repelling == 0

    def test_parabolic_single_point(self):
        assert fixed_points(MobiusMap(1, 1, 0, 1)).points == (INF,)

    def test_inversion(self):
        pts = fixed_points(MobiusMap(0, 1, -1, 0)).points
        assert sorted(pts, key=lambda z: z.imag) == [-1j, 1j]

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            fixed_points(MobiusMap(1, 0, 0, 1, normalize=False))


class TestOrderCheck:
    def test_rotation_has_order(self):
        assert order_check(rot(5), 5)

    def test_loxodromic_fails(self):
        assert not order_check(MobiusMap(2, 0, 0, 0.5), 5)

    def test_quarter_turn_is_involution(self):
        assert order_check(MobiusMap(0, 1, -1, 0), 2)

    def test_identity_not_of_order_p(self):
        assert not order_check(MobiusMap(1, 0, 0, 1, normalize=False), 5)


class TestTolerances:
    @pytest.mark.parametrize("name", ["classify", "order"])
    @pytest.mark.parametrize("value", [0.0, -1e-9, math.nan, math.inf])
    def test_rejects_non_finite_or_non_positive(self, name, value):
        with pytest.raises(ValueError, match=f"tolerance {name} must be"):
            Tolerances(**{name: value})


class TestNormalization:
    def test_determinant_unit_scale(self):
        rng = random.Random(3)
        for _ in range(500):
            m = random_unimodular(rng)
            assert abs(m.det() - 1) <= 1e-12

    def test_idempotent_and_scale_stable(self):
        rng = random.Random(4)
        for _ in range(200):
            m = random_unimodular(rng)
            again = MobiusMap(*m.entries())
            scaled = MobiusMap(*(3 * z for z in m.entries()))
            for z, w in zip(m.entries(), again.entries()):
                assert abs(z - w) < 1e-12
            for z, w in zip(m.entries(), scaled.entries()):
                assert abs(z - w) < 1e-12

    def test_sign_convention(self):
        m = MobiusMap(-2, 0, 0, -0.5)
        assert m.trace().real > 0


class TestBuildMatrixGroup:
    def test_three_half_turns(self):
        mg = build_matrix_group(AdmissibleTuple(2, 2, 0, 3, 0))
        assert [mg.centers[("e", j)] for j in (1, 2, 3)] == [0, 10, 20]
        for j in (1, 2, 3):
            m = mg.matrices[("e", j)]
            assert order_check(m, 2)
            assert abs(m.trace()) <= 1e-12  # half turn

    def test_mixed_build(self):
        mg = build_matrix_group(AdmissibleTuple(5, 5, 1, 1, 0))
        assert classify(mg.matrices[("a", 1)]) is MobiusClass.LOXODROMIC
        assert classify(mg.matrices[("e", 1)]) is MobiusClass.ELLIPTIC
        assert order_check(mg.matrices[("e", 1)], 5)

    def test_loxodromic_trace_margin(self):
        mg = build_matrix_group(AdmissibleTuple(26, 5, 6, 0, 0))
        for j in range(1, 7):
            assert abs(mg.matrices[("a", j)].trace()) > 2 + 1e-6

    @pytest.mark.parametrize("args,himg", [
        ((2, 2, 0, 1, 1), None),
        ((6, 5, 1, 0, 1), None),
    ])
    def test_pair_invariants_plain_tolerances(self, args, himg):
        tup = AdmissibleTuple(*args)
        mg = build_matrix_group(tup)
        for k in range(1, tup.s + 1):
            t_m, f_m = mg.matrices[("t", k)], mg.matrices[("f", k)]
            assert commutator_defect(t_m, f_m) <= _COMMUTATION_TOL
            assert order_check(f_m, tup.p)
            assert classify(t_m) is MobiusClass.LOXODROMIC
            t_pts = sorted(fixed_points(t_m).points, key=lambda z: z.real)
            f_pts = sorted(fixed_points(f_m).points, key=lambda z: z.real)
            for zt, zf in zip(t_pts, f_pts):
                assert abs(zt - zf) <= 1e-8

    def test_elliptic_fixed_points_off_axis(self):
        mg = build_matrix_group(AdmissibleTuple(2, 2, 0, 3, 0))
        pts = fixed_points(mg.matrices[("e", 2)]).points
        assert sorted(z.imag for z in pts) == pytest.approx([-0.1, 0.1])
        assert all(abs(z.real - 10) < 1e-9 for z in pts)

    def test_order_check_implies_elliptic_classification(self):
        for args in [(2, 2, 0, 3, 0), (5, 5, 1, 1, 0), (2, 2, 0, 1, 1)]:
            mg = build_matrix_group(AdmissibleTuple(*args))
            assert matrix_group_defects(mg) == []
            p = mg.spec.p
            for sym, m in mg.matrices.items():
                if sym[0] in ("e", "f"):
                    assert order_check(m, p)
                    assert classify(m) is MobiusClass.ELLIPTIC


    def test_defects_name_each_broken_invariant(self):
        # a classify tolerance of 10 calls every factor the identity or
        # parabolic, and order_check refuses a map it calls the identity
        mg = build_matrix_group(AdmissibleTuple(5, 5, 0, 1, 1))
        assert matrix_group_defects(mg, Tolerances(classify=10)) == [
            "e1 does not have order 5",
            "e1 is identity, not elliptic",
            "t1 is parabolic, not loxodromic",
            "f1 is parabolic, not elliptic",
        ]
        # e1 rotates about a point 10 away from t1's axis: order 5, but
        # it does not commute with t1
        swapped = MatrixGroupSpec(
            mg.spec, {**mg.matrices, ("f", 1): mg.matrices[("e", 1)]},
            mg.centers,
        )
        (defect,) = matrix_group_defects(swapped)
        assert defect.startswith("pair 1 fails to commute")


class TestPurelyLoxodromic:
    def test_involutions_pass_at_default_separation(self):
        tup = AdmissibleTuple(2, 2, 0, 3, 0)
        mg = build_matrix_group(tup)
        phi = KHom(mg.spec, HomImage(2, e=(1, 1, 1)))
        rep = purely_loxodromic_sample(mg, phi, max_syllables=4)
        assert rep["passed"] and rep["n_words"] == 30
        assert rep["n_loxodromic"] == 30
        # per-word trace and classification are part of the report
        assert len(rep["words"]) == 30
        assert all(w["class"] == "loxodromic" and len(w["trace"]) == 2
                   for w in rep["words"])

    def test_collapsed_separation_names_violator(self):
        # small separation destroys ping-pong; this instance fails for real
        tup = AdmissibleTuple(4, 5, 0, 2, 0)
        mg = build_matrix_group(tup, separation=0.1)
        phi = KHom(mg.spec, HomImage(5, e=(1, 1)))
        rep = purely_loxodromic_sample(mg, phi, max_syllables=4)
        assert not rep["passed"]
        assert rep["violations"]
        first = rep["violations"][0]
        assert first["word"] and first["class"] == "elliptic"
        assert len(first["trace"]) == 2

    def test_spec_example_small_separation_well_formed(self):
        tup = AdmissibleTuple(2, 2, 0, 3, 0)
        mg = build_matrix_group(tup, separation=0.05)
        phi = KHom(mg.spec, HomImage(2, e=(1, 1, 1)))
        rep = purely_loxodromic_sample(mg, phi, max_syllables=4)
        assert isinstance(rep["passed"], bool)
        if not rep["passed"]:
            assert rep["violations"]

    def test_empty_sample_rejected(self):
        # a sample of no words would pass vacuously
        tup = AdmissibleTuple(2, 2, 0, 3, 0)
        mg = build_matrix_group(tup)
        phi = KHom(mg.spec, HomImage(2, e=(1, 1, 1)))
        with pytest.raises(ValueError, match="max_syllables must be >= 1"):
            purely_loxodromic_sample(mg, phi, max_syllables=0)

    def test_traces_match_left_to_right_powers(self):
        # each trace is, float for float, the product of the syllable powers
        # taken left to right from the identity, whatever prefix it shares
        # with the word before it
        rng = random.Random(11)
        for g, p, t, r, s in [(5, 5, 1, 1, 0), (5, 5, 0, 1, 1), (6, 5, 1, 0, 1),
                              (8, 7, 1, 0, 1), (6, 5, 2, 0, 0)]:
            tup = AdmissibleTuple(g, p, t, r, s)
            mg = build_matrix_group(tup)
            for _ in range(2):
                a = tuple(rng.randrange(p) for _ in range(t))
                if r == s == 0 and not any(a):
                    a = (1,) + a[1:]
                hom = HomImage(
                    p, a=a, e=tuple(rng.randrange(1, p) for _ in range(r)),
                    tau=tuple(rng.randrange(p) for _ in range(s)),
                    f=tuple(rng.randrange(1, p) for _ in range(s)))
                phi = KHom(mg.spec, hom)
                for length in range(1, 5):
                    rep = purely_loxodromic_sample(mg, phi,
                                                   max_syllables=length)
                    words = kernel_sample(phi, length)
                    assert ([e["word"] for e in rep["words"]]
                            == [str(w) for w in words])
                    for entry, w in zip(rep["words"], words):
                        m = MobiusMap(1, 0, 0, 1, normalize=False)
                        for sym, exp in w.syllables:
                            m = m * (mg.matrices[sym] ** exp)
                        want = [m.trace().real.hex(), m.trace().imag.hex()]
                        assert [x.hex() for x in entry["trace"]] == want, entry
                        assert entry["class"] == classify(m).value

    def test_powers_match_repeated_products(self):
        mg = build_matrix_group(AdmissibleTuple(5, 5, 1, 1, 0))
        for sym in (("e", 1), ("a", 1)):
            m = mg.matrices[sym]
            product = MobiusMap(1, 0, 0, 1, normalize=False)
            for exp in range(1, 6):
                product = product * m
                scale = max(map(abs, product.entries()))
                assert all(abs(x - y) < 1e-9 * scale for x, y in
                           zip((m ** exp).entries(), product.entries()))
                inverse = m ** -exp * product
                assert all(abs(x - y) < 1e-9 * scale**2 for x, y in
                           zip(inverse.entries(), (1, 0, 0, 1)))
