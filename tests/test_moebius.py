import cmath
import itertools
import math
import random

import pytest

from perfbench.checkers import is_normal_form, parse_syllables
from schottky_strata import moebius
from schottky_strata.homorbits import HomImage
from schottky_strata.strata import (AdmissibleTuple, BudgetExceeded,
                                    enumerate_tuples)
from schottky_strata.cyclic_schottky import (FPWord, KHom, fpword_str,
                                             kernel_membership,
                                             normalized_homs, symbols)
from schottky_strata.moebius import (
    MatrixGroupSpec,
    _dist_to_unit,
    _factor,
    _may_follow,
    _mul,
    _powers,
    _syllable_alphabet,
    build_matrix_group,
    classify,
    commute,
    matrix_group_defects,
    order_check,
    purely_loxodromic_sample,
)
from test_cyclic_schottky import (SPEC_FREE, SPEC_INV, SPEC_MIXED,
                                  SPEC_PAIR, spec_of)


CLASSES = {"identity", "parabolic", "elliptic", "loxodromic"}


def mobius(a, b, c, d):
    """The map [[a, b], [c, d]], its entries made complex as ``_factor``
    makes them."""
    return tuple(map(complex, (a, b, c, d)))


def conjugate(u, m):
    """u m u^-1, with u^-1 the adjugate of the unit-determinant u."""
    a, b, c, d = u
    return _mul(_mul(u, m), (d, -b, -c, a))


def power(m, k):
    """m^k by square-and-multiply: from the identity, m's repeated squares
    multiplied on the right, one per set bit of k, lowest first, no square
    past the top bit; a negative k raises the adjugate, the inverse at
    determinant 1.  The reference for ``_powers``."""
    if k < 0:
        a, b, c, d = m
        return power((d, -b, -c, a), -k)
    result = mobius(1, 0, 0, 1)
    while k:
        if k & 1:
            result = _mul(result, m)
        k >>= 1
        if k:
            m = _mul(m, m)
    return result


def bits(m):
    """The exact floats of a map, signed zeros told apart."""
    return [x.hex() for z in m for x in (z.real, z.imag)]


def dist_to_unit(m):
    """min(||M - I||, ||M + I||) in the Frobenius norm."""
    a, b, c, d = m
    return _dist_to_unit(a, abs(b) ** 2, abs(c) ** 2, d)


def trace(m):
    return m[0] + m[3]


def fixed_point_residual(m, z):
    """|c z^2 + (d - a) z - b|: zero exactly when m fixes the finite z."""
    a, b, c, d = m
    return abs(c * z * z + (d - a) * z - b)


def rot(p):
    ph = cmath.exp(1j * math.pi / p)
    return mobius(ph, 0, 0, 1 / ph)


def parsed(text):
    """The FPWord of a word's text, read by the benchmark's parser."""
    return FPWord(tuple(((kind, idx), exp)
                        for kind, idx, exp in parse_syllables(text)))


def left_to_right(mg, w):
    """The product of the syllable powers of ``w``, left to right from the
    identity."""
    m = mobius(1, 0, 0, 1)
    for sym, exp in w.syllables:
        m = _mul(m, power(mg.matrices[sym], exp))
    return m


def kernel_words(phi, max_syllables, budget=10**6):
    """The words of ``purely_loxodromic_sample`` at the default
    separation, read back from the report's text."""
    rep = purely_loxodromic_sample(build_matrix_group(phi.spec), phi,
                                   max_syllables, budget)
    return [parsed(entry["word"]) for entry in rep["words"]]


def brute_kernel_words(phi, length):
    """Every word over the alphabet whose neighbours may follow each other,
    by length and then lexicographically, kept when in the kernel: an
    enumeration that shares no code with the sample's walk; and the
    number of those candidate words."""
    alphabet = _syllable_alphabet(phi.spec)
    want, candidates = [], 0
    for k in range(1, length + 1):
        for syls in itertools.product(alphabet, repeat=k):
            w = FPWord(syls)
            if all(_may_follow(x, y) for (x, _), (y, _) in
                   zip(syls, syls[1:])):
                candidates += 1
                if kernel_membership(phi, w):
                    want.append(w)
    return want, candidates


def inverse(spec, w):
    """The inverse of a normal-form word, in normal form: the syllables
    reversed, negated and reduced mod p when elliptic, and each F_k^a T_k^b
    that the reversal makes swapped to T_k^b F_k^a."""
    out = [(sym, -exp % spec.p if sym[0] in "ef" else -exp)
           for sym, exp in reversed(w.syllables)]
    for i in range(len(out) - 1):
        (prev, _), (sym, _) = out[i], out[i + 1]
        if sym[0] == "t" and prev == ("f", sym[1]):
            out[i], out[i + 1] = out[i + 1], out[i]
    return FPWord(tuple(out))


def random_unimodular(rng):
    while True:
        a, b, c = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
        if abs(a) > 0.2:
            d = (1 + b * c) / a
            return mobius(a, b, c, d)


class TestClassify:
    def test_diagonal_loxodromic(self):
        assert classify(mobius(2, 0, 0, 0.5)) == "loxodromic"

    def test_translation_parabolic(self):
        assert classify(mobius(1, 1, 0, 1)) == "parabolic"

    def test_order5_rotation_elliptic(self):
        assert classify(rot(5)) == "elliptic"

    def test_identity_both_signs(self):
        assert classify(mobius(1, 0, 0, 1)) == "identity"
        assert classify(mobius(-1, 0, 0, -1)) == "identity"

    def test_conjugation_invariance(self):
        rng = random.Random(17)
        samples = [
            mobius(2, 0, 0, 0.5),
            rot(5),
            rot(7),
            mobius(1, 1, 0, 1),
            mobius(3 + 1j, 1, 0, 1 / (3 + 1j)),
        ]
        for _ in range(1000):
            u = random_unimodular(rng)
            m = rng.choice(samples)
            assert classify(conjugate(u, m)) == classify(m)

    def test_identity_pretest_matches_distance(self, monkeypatch):
        # classify tests |b|^2 + |c|^2 before dist_to_unit; near +-I, at the
        # eps boundary and with NaN and inf entries it must still return
        # IDENTITY exactly when dist_to_unit(m) <= eps
        rng = random.Random(5)
        nonfinite = [math.nan, math.inf, -math.inf]
        seen = set()
        for eps in (1e-9, 1e-3, 0.5, 1.0, 3.0, 10.0):
            monkeypatch.setattr(moebius, "_EPS", eps)
            for _ in range(3000):
                sign = rng.choice((1, -1))
                scale = eps * rng.choice((0.3, 0.7, 1 - 1e-15, 1, 1 + 1e-15, 2))
                a, b, c, d = (complex(rng.gauss(0, scale), rng.gauss(0, scale))
                              for _ in range(4))
                if rng.random() < 0.2:
                    b, c = complex(scale, 0), 0j
                if rng.random() < 0.1:
                    entries = [a, b, c, d]
                    entries[rng.randrange(4)] = complex(rng.choice(nonfinite), 0)
                    a, b, c, d = entries
                m = mobius(sign + a, b, c, sign + d)
                want = dist_to_unit(m) <= eps
                got = classify(m) == "identity"
                assert got == want, (eps, m)
                seen.add(want)
            # |b| or |c| at eps itself, with a = d = +-1: on the boundary
            for sign in (1, -1):
                for b, c in ((eps, 0), (0, eps), (0, -1j * eps)):
                    m = mobius(sign, b, c, sign)
                    assert (classify(m) == "identity") == (
                        dist_to_unit(m) <= eps), (eps, m)
        assert seen == {True, False}
        monkeypatch.setattr(moebius, "_EPS", 0.5)
        assert classify(mobius(1, 0.5, 0, 1)) == "identity"


def full_rule(m, eps):
    """classify's rule in full, with no trace-first shortcut: identity
    (pretest, then both Frobenius distances), parabolic, elliptic,
    loxodromic."""
    a, b, c, d = m
    b2, c2 = abs(b) ** 2, abs(c) ** 2
    if math.sqrt(b2 + c2) <= eps and min(
            math.sqrt(abs(a - 1) ** 2 + b2 + c2 + abs(d - 1) ** 2),
            math.sqrt(abs(a + 1) ** 2 + b2 + c2 + abs(d + 1) ** 2)) <= eps:
        return "identity"
    tr2 = (a + d) ** 2
    if abs(tr2 - 4) <= eps:
        return "parabolic"
    if abs(tr2.imag) <= eps and -eps <= tr2.real <= 4 - eps:
        return "elliptic"
    return "loxodromic"


def _outcome(rule, m):
    try:
        return rule(m)
    except OverflowError:
        return OverflowError


class TestTraceFirst:
    EPS = (1e-9, 1e-3, 0.5, 1.0, 3.0, 10.0)

    def _matrices(self, rng, eps):
        """Seeded matrices around the shortcut's edges: near +-I, with tr^2
        in the band 4 + eps < tr^2 <= 4 + 8 eps + 4 eps^2 and off it, with
        |Im tr^2| near eps, generic ones and ones whose |b|^2, |c|^2 or
        tr^2 overflows."""
        def near(z, scale):
            return z + complex(rng.gauss(0, scale), rng.gauss(0, scale))

        band = (8 + 4 * eps) * eps
        for _ in range(1500):
            sign = rng.choice((1, -1))
            scale = eps * rng.choice((0.1, 0.3, 0.5, 0.7, 1, 2))
            yield mobius(near(sign, scale), near(0, scale), near(0, scale),
                            near(sign, scale))
            # tr^2 = 4 + x + iy, x across the band and past it, y near 0
            x = rng.choice((rng.uniform(eps, band), band * (1 + 1e-15),
                            band * (1 - 1e-15), rng.uniform(0, 2 * band),
                            -rng.uniform(0, 2 * band)))
            y = rng.choice((0, rng.gauss(0, eps * 1e-3), rng.gauss(0, eps)))
            half = sign * cmath.sqrt(4 + complex(x, y)) / 2
            off = rng.choice((0, 0.1, 0.5, 1, 3)) * eps
            yield mobius(half + near(0, off), near(0, off), near(0, off),
                            half + near(0, off))
            # |Im tr^2| within a few ulps of eps, Re tr^2 inside [0, 4]
            im = eps * rng.choice((1, 1 + 1e-15, 1 - 1e-15, 1 + 1e-9))
            half = cmath.sqrt(complex(rng.uniform(-eps, 4),
                                      rng.choice((im, -im)))) / 2
            yield mobius(half, near(0, 1), near(0, 1), half)
            u = random_unimodular(rng)
            yield conjugate(u, rng.choice((rot(5), rot(7), mobius(1, 1, 0, 1),
                                          mobius(2, 0, 0, 0.5))))
        for big in (1e153, 1e154, 1.4e154, 1e200, 1e308):
            for entry in range(4):
                entries = [2, 1, 0.5, 1]
                entries[entry] = big * rng.choice((1, -1, 1j, -1j))
                yield mobius(*entries)
            yield mobius(1, big * (1 + 1j), 0, 1)
            yield mobius(3, 0, big, 0.5)

    def test_classify_matches_the_full_rule(self, monkeypatch):
        rng = random.Random(27)
        for eps in self.EPS:
            monkeypatch.setattr(moebius, "_EPS", eps)
            seen = set()
            for m in self._matrices(rng, eps):
                want = _outcome(lambda m: full_rule(m, eps), m)
                assert _outcome(classify, m) == want, (eps, m)
                seen.add(want)
            assert seen == {*CLASSES, OverflowError}, eps

    def test_identity_beyond_eps_of_four(self):
        # tr^2 - 4 is about 3.2e-9 > eps: a shortcut whose margin were eps
        # would call this loxodromic
        m = mobius(1 + 4e-10, 0, 0, 1 + 4e-10)
        assert abs(trace(m) ** 2 - 4) > moebius._EPS
        assert classify(m) == "identity"


class TestOrderCheck:
    def test_rotation_has_order(self):
        assert order_check(rot(5), 5)

    def test_loxodromic_fails(self):
        assert not order_check(mobius(2, 0, 0, 0.5), 5)

    def test_quarter_turn_is_involution(self):
        assert order_check(mobius(0, 1, -1, 0), 2)

    def test_identity_not_of_order_p(self):
        assert not order_check(mobius(1, 0, 0, 1), 5)

    def test_far_half_turn_passes_by_its_trace(self):
        # the half turn about 2000 -+ 0.1i has norm ~4e7: its square misses
        # -I by more than 1e-8, but its trace is 0 to rounding
        mg = build_matrix_group(AdmissibleTuple(2, 2, 0, 3, 0), separation=1e3)
        m = mg.matrices[("e", 3)]
        assert dist_to_unit(power(m, 2)) > 1e-8
        assert order_check(m, 2)


class TestNormalization:
    def test_determinant_unit_scale(self):
        rng = random.Random(3)
        for _ in range(500):
            a, b, c, d = random_unimodular(rng)
            assert abs(a * d - b * c - 1) <= 1e-12


# the entries of two builds, (real imag) in float.hex, as first written
_PINNED_ENTRIES = {
    ((14, 5, 1, 2, 1), 10.0): {
        "a1": ("0x1.91aaaaaaaaaabp+8 0x0.0p+0", "-0x1.76feeeeeeeeeep+13 0x0.0p+0",
               "0x1.aaaaaaaaaaaaap+3 0x0.0p+0", "-0x1.8e55555555555p+8 0x0.0p+0"),
        "e1": ("0x1.9e3779b97f4a8p-1 0x0.0p+0", "-0x1.e183807222a32p-5 0x0.0p+0",
               "0x1.782ebc592b0f5p+2 0x0.0p+0", "0x1.9e3779b97f4a8p-1 0x0.0p+0"),
        "e2": ("0x1.dcb349565bd06p+5 0x0.0p+0", "-0x1.25ec0933ab6c9p+9 0x0.0p+0",
               "0x1.782ebc592b0f5p+2 0x0.0p+0", "-0x1.cfc18d888fd60p+5 0x0.0p+0"),
        "t1": ("0x1.0c55555555555p+8 0x0.0p+0", "-0x1.4d53333333333p+12 0x0.0p+0",
               "0x1.aaaaaaaaaaaaap+3 0x0.0p+0", "-0x1.08fffffffffffp+8 0x0.0p+0"),
        "f1": ("0x1.9e3779b97f4a8p-1 0x1.d63a6b6f75d33p+6",
               "0x0.0p+0 -0x1.25e2a1a22931ep+11", "0x0.0p+0 0x1.782ebc592b0f5p+2",
               "0x1.9e3779b97f4a8p-1 -0x1.d63a6b6f75d33p+6"),
    },
    ((26, 5, 6, 0, 0), 1000000.0): {
        "a1": ("0x1.aaaaaaaaaaaabp+0 0x0.0p+0", "0x1.1111111111112p-3 0x0.0p+0",
               "0x1.aaaaaaaaaaaaap+3 0x0.0p+0", "0x1.aaaaaaaaaaaabp+0 0x0.0p+0"),
        "a2": ("0x1.96e6adfffffffp+23 0x0.0p+0", "-0x1.840d131aaaa65p+43 0x0.0p+0",
               "0x1.aaaaaaaaaaaaap+3 0x0.0p+0", "-0x1.96e6a75555555p+23 0x0.0p+0"),
        "a3": ("0x1.96e6ac5555555p+24 0x0.0p+0", "-0x1.840d131aaaa99p+45 0x0.0p+0",
               "0x1.aaaaaaaaaaaaap+3 0x0.0p+0", "-0x1.96e6a8fffffffp+24 0x0.0p+0"),
        "a4": ("0x1.312d00d555555p+25 0x0.0p+0", "-0x1.b48eb57dffff6p+46 0x0.0p+0",
               "0x1.aaaaaaaaaaaaap+3 0x0.0p+0", "-0x1.312cff2aaaaabp+25 0x0.0p+0"),
        "a5": ("0x1.96e6ab7ffffffp+25 0x0.0p+0", "-0x1.840d131aaaaa6p+47 0x0.0p+0",
               "0x1.aaaaaaaaaaaaap+3 0x0.0p+0", "-0x1.96e6a9d555555p+25 0x0.0p+0"),
        "a6": ("0x1.fca0562aaaaaap+25 0x0.0p+0", "-0x1.2f2a36ecd5552p+48 0x0.0p+0",
               "0x1.aaaaaaaaaaaaap+3 0x0.0p+0", "-0x1.fca0548000000p+25 0x0.0p+0"),
    },
}


class TestBuildMatrixGroup:
    def test_entries_are_complex(self):
        # a float entry would change the signed zeros and NaNs of products
        for args in [(2, 2, 0, 3, 0), (5, 5, 0, 1, 1), (9, 3, 1, 1, 2),
                     (14, 5, 1, 2, 1), (26, 5, 6, 0, 0)]:
            for separation in (1e-3, 10, 1e6):
                mg = build_matrix_group(AdmissibleTuple(*args),
                                        separation=separation)
                for m in mg.matrices.values():
                    assert type(m) is tuple and len(m) == 4
                    assert all(type(z) is complex for z in m), (args, m)

    @pytest.mark.parametrize("args,separation", list(_PINNED_ENTRIES))
    def test_entries_are_pinned(self, args, separation):
        mg = build_matrix_group(AdmissibleTuple(*args), separation=separation)
        got = {f"{kind}{j}": tuple(f"{z.real.hex()} {z.imag.hex()}" for z in m)
               for (kind, j), m in mg.matrices.items()}
        assert got == _PINNED_ENTRIES[args, separation]

    def test_three_half_turns(self):
        mg = build_matrix_group(AdmissibleTuple(2, 2, 0, 3, 0))
        assert [mg.centers[("e", j)] for j in (1, 2, 3)] == [0, 10, 20]
        for j in (1, 2, 3):
            m = mg.matrices[("e", j)]
            assert order_check(m, 2)
            assert abs(trace(m)) <= 1e-12  # half turn

    def test_mixed_build(self):
        mg = build_matrix_group(AdmissibleTuple(5, 5, 1, 1, 0))
        assert classify(mg.matrices[("a", 1)]) == "loxodromic"
        assert classify(mg.matrices[("e", 1)]) == "elliptic"
        assert order_check(mg.matrices[("e", 1)], 5)

    def test_loxodromic_trace_margin(self):
        mg = build_matrix_group(AdmissibleTuple(26, 5, 6, 0, 0))
        for j in range(1, 7):
            assert abs(trace(mg.matrices[("a", j)])) > 2 + 1e-6

    @pytest.mark.parametrize("args,himg", [
        ((2, 2, 0, 1, 1), None),
        ((6, 5, 1, 0, 1), None),
    ])
    def test_pair_invariants_plain_tolerances(self, args, himg):
        tup = AdmissibleTuple(*args)
        mg = build_matrix_group(tup)
        for k in range(1, tup.s + 1):
            t_m, f_m = mg.matrices[("t", k)], mg.matrices[("f", k)]
            assert commute(t_m, f_m)
            assert dist_to_unit(power(f_m, tup.p)) <= 1e-8
            assert classify(t_m) == "loxodromic"
            # both fix the real pair center -+ 0.1
            center = mg.centers[("t", k)]
            for m in (t_m, f_m):
                for z in (center - 0.1, center + 0.1):
                    assert fixed_point_residual(m, z) <= 1e-8

    def test_elliptic_fixed_points_off_axis(self):
        mg = build_matrix_group(AdmissibleTuple(2, 2, 0, 3, 0))
        m = mg.matrices[("e", 2)]
        for z in (10 - 0.1j, 10 + 0.1j):
            assert fixed_point_residual(m, z) <= 1e-9
        # and not on the real axis
        assert fixed_point_residual(m, 10.1) > 1e-3

    def test_order_check_implies_elliptic_classification(self):
        for args in [(2, 2, 0, 3, 0), (5, 5, 1, 1, 0), (2, 2, 0, 1, 1)]:
            mg = build_matrix_group(AdmissibleTuple(*args))
            assert matrix_group_defects(mg) == []
            p = mg.spec.p
            for sym, m in mg.matrices.items():
                if sym[0] in ("e", "f"):
                    assert order_check(m, p)
                    assert classify(m) == "elliptic"


    def test_defects_name_each_broken_invariant(self, monkeypatch):
        # a tolerance of 10 calls every factor the identity or parabolic;
        # e1's trace still reads order 5
        mg = build_matrix_group(AdmissibleTuple(5, 5, 0, 1, 1))
        with monkeypatch.context() as patch:
            patch.setattr(moebius, "_EPS", 10)
            assert matrix_group_defects(mg) == [
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

    @pytest.mark.parametrize("delta", [1e-3, 1e-6])
    @pytest.mark.parametrize("separation", [10, 1e3, 1e4, 1e5, 1e6])
    def test_moved_pair_is_named_at_far_centers(self, separation, delta):
        # F2 rotates about center + delta -+ 0.1, T2 about center -+ 0.1:
        # the minors read about delta / center, far above rounding
        mg = build_matrix_group(AdmissibleTuple(9, 3, 1, 1, 2),
                                separation=separation)
        assert matrix_group_defects(mg) == []
        center = mg.centers[("f", 2)].real
        mg.matrices[("f", 2)] = _factor(center + delta, 0.1,
                                        math.cos(math.pi / 3),
                                        1j * math.sin(math.pi / 3))
        assert order_check(mg.matrices[("f", 2)], 3)
        assert matrix_group_defects(mg) == ["pair 2 fails to commute"]

    def test_every_built_pair_commutes(self):
        # every pair of every shape with s >= 1 and at most 14 factors, for
        # g < 60, near the origin and far from it
        builds = 0
        for p in (2, 3, 5, 7, 11, 13, 31, 101):
            for g in range(2, 60):
                for tup in enumerate_tuples(g, p):
                    if tup.s < 1 or tup.t + tup.r + tup.s > 14:
                        continue
                    for separation in (1e-6, 1e-3, 0.05, 1, 10, 1e3, 1e6,
                                       1e10, 1e14):
                        mg = build_matrix_group(tup, separation=separation)
                        builds += 1
                        for k in range(1, tup.s + 1):
                            assert commute(mg.matrices[("t", k)],
                                           mg.matrices[("f", k)]), (
                                tup, separation, k)
        assert builds == 16614

    @pytest.mark.parametrize("entry", range(4))
    def test_nan_entry_does_not_commute(self, entry):
        mg = build_matrix_group(AdmissibleTuple(5, 5, 0, 1, 1))
        t_m, f_m = mg.matrices[("t", 1)], mg.matrices[("f", 1)]
        assert commute(t_m, f_m) and commute(f_m, t_m)
        entries = list(f_m)
        entries[entry] = complex(math.nan, 0)
        assert not commute(t_m, mobius(*entries))
        assert not commute(mobius(*entries), t_m)

    @pytest.mark.parametrize("separation", [10, 1e3, 1e4, 1e5, 1e6])
    def test_wrong_order_is_named_at_far_centers(self, separation):
        # an order-3 rotation about e3's own fixed points, in place of its
        # half turn: elliptic, but its trace is not of order 2
        mg = build_matrix_group(AdmissibleTuple(2, 2, 0, 3, 0),
                                separation=separation)
        center = mg.centers[("e", 3)].real
        third = _factor(center, 0.1j, math.cos(math.pi / 3),
                        1j * math.sin(math.pi / 3))
        assert abs(trace(third) - 1) <= 1e-9
        for z in (center - 0.1j, center + 0.1j):
            assert fixed_point_residual(third, z) <= 1e-12 * center ** 2
        assert matrix_group_defects(mg) == []
        mg.matrices[("e", 3)] = third
        assert matrix_group_defects(mg) == ["e3 does not have order 2"]

    def test_far_loxodromic_factors_are_not_renormalised(self):
        # a6 sits at 5e6, where a normalising determinant would cancel to 0
        mg = build_matrix_group(AdmissibleTuple(26, 5, 6, 0, 0),
                                separation=1e6)
        for j in range(1, 7):
            m = mg.matrices[("a", j)]
            assert classify(m) == "loxodromic", j
        assert matrix_group_defects(mg) == []


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

    def test_non_finite_trace_raises(self):
        # products of a factor near the largest double overflow to inf and
        # nan; no such trace is reported
        tup = AdmissibleTuple(2, 2, 0, 3, 0)
        mg = build_matrix_group(tup)
        mg.matrices[("e", 1)] = mobius(1e308, 1e308, 1e308, 1e308)
        phi = KHom(mg.spec, HomImage(2, e=(1, 1, 1)))
        with pytest.raises(OverflowError, match="has trace"):
            purely_loxodromic_sample(mg, phi, max_syllables=2)

    def test_empty_sample_rejected(self):
        # a sample of no words would pass vacuously
        tup = AdmissibleTuple(2, 2, 0, 3, 0)
        mg = build_matrix_group(tup)
        phi = KHom(mg.spec, HomImage(2, e=(1, 1, 1)))
        with pytest.raises(ValueError, match="max_syllables must be >= 1"):
            purely_loxodromic_sample(mg, phi, max_syllables=0)

    def test_traces_match_left_to_right_powers(self):
        # the words are the brute-force enumeration's, and each trace is,
        # float for float, the product of the syllable powers taken left to
        # right from the identity, though the walk multiplies each shared
        # prefix only once
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
                    words, _ = brute_kernel_words(phi, length)
                    assert ([e["word"] for e in rep["words"]]
                            == [str(w) for w in words])
                    for entry, w in zip(rep["words"], words):
                        m = left_to_right(mg, w)
                        want = [trace(m).real.hex(), trace(m).imag.hex()]
                        assert [x.hex() for x in entry["trace"]] == want, entry
                        assert entry["class"] == classify(m)

    @pytest.mark.parametrize("separation", [1e6, 10, 1, 0.2, 0.05, 0.01])
    def test_classes_match_classify(self, separation, monkeypatch):
        # every entry must carry the class classify gives the left-to-right
        # product, on crowded and distant separations and a loose tolerance
        # too, where words fail
        classes = set()
        for g, p, t, r, s in [(5, 5, 1, 1, 0), (6, 5, 1, 0, 1), (4, 5, 0, 2, 0),
                              (6, 5, 2, 0, 0), (2, 2, 0, 3, 0),
                              (26, 5, 6, 0, 0)]:
            mg = build_matrix_group(AdmissibleTuple(g, p, t, r, s),
                                    separation=separation)
            for phi in itertools.islice(normalized_homs(mg.spec), 4):
                for eps in (1e-9, 10):
                    monkeypatch.setattr(moebius, "_EPS", eps)
                    rep = purely_loxodromic_sample(mg, phi, max_syllables=3)
                    assert rep["words"]
                    for entry in rep["words"]:
                        m = left_to_right(mg, parsed(entry["word"]))
                        assert entry["class"] == classify(m), entry
                        classes.add(entry["class"])
                    assert rep["n_loxodromic"] == sum(
                        e["class"] == "loxodromic" for e in rep["words"])
                    assert rep["violations"] == [
                        e for e in rep["words"] if e["class"] != "loxodromic"]
                    assert rep["passed"] == (not rep["violations"])
        assert "parabolic" in classes

    def test_powers_match_repeated_products(self):
        mg = build_matrix_group(AdmissibleTuple(5, 5, 1, 1, 0))
        for sym in (("e", 1), ("a", 1)):
            m = mg.matrices[sym]
            product = mobius(1, 0, 0, 1)
            for exp in range(1, 6):
                product = _mul(product, m)
                scale = max(map(abs, product))
                assert all(abs(x - y) < 1e-9 * scale for x, y in
                           zip(power(m, exp), product))
                inverse = _mul(power(m, -exp), product)
                assert all(abs(x - y) < 1e-9 * scale**2 for x, y in
                           zip(inverse, (1, 0, 0, 1)))

    @pytest.mark.parametrize("separation", [10, 1e6])
    def test_power_table_is_square_and_multiply(self, separation):
        # bit for bit, for every 0 < |k| <= p - 1: each prime p <= 31, an
        # elliptic, a loxodromic and a pair's factors
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            mg = build_matrix_group(
                AdmissibleTuple(2 * p, p, 1, 1, 1), separation)
            for m in mg.matrices.values():
                table = _powers(m, p - 1, p - 1)
                assert len(table) == 2 * p - 1
                assert len(_powers(m, p - 1)) == p
                assert bits(table[0]) == bits(mobius(1, 0, 0, 1))
                for k in range(1, p):
                    assert bits(table[k]) == bits(power(m, k)), (p, k)
                    assert bits(table[-k]) == bits(power(m, -k)), (p, -k)


class TestSampleAlphabet:
    def test_alphabet_exponents(self):
        # loxodromic syllables carry +-1, elliptic ones 1..p-1, in roster order
        assert _syllable_alphabet(SPEC_PAIR) == (
            [(("a", 1), -1), (("a", 1), 1), (("t", 1), -1), (("t", 1), 1)]
            + [(("f", 1), c) for c in range(1, 5)])
        assert _syllable_alphabet(SPEC_INV) == [(("e", j), 1) for j in (1, 2, 3)]

    def test_may_follow(self):
        assert _may_follow(None, ("f", 1))
        assert not _may_follow(("a", 1), ("a", 1))
        assert not _may_follow(("f", 1), ("t", 1))  # T_k is written first
        assert _may_follow(("t", 1), ("f", 1))
        assert _may_follow(("f", 1), ("t", 2))
        assert _may_follow(("e", 1), ("e", 2))

    def test_rule_agrees_with_the_independent_check(self):
        # seeded raw syllable strings: the walk's rule (alphabet plus
        # _may_follow) accepts exactly those that the benchmark's check
        # accepts with loxodromic exponents +-1
        spec = spec_of(14, 5, 1, 2, 1)
        roster, alphabet = symbols(spec), set(_syllable_alphabet(spec))
        rng = random.Random(77)
        seen = set()
        for _ in range(1500):
            raw = [(rng.choice(roster), rng.randint(-2, 5))
                   for _ in range(rng.randint(0, 6))]
            ours = (all(syl in alphabet for syl in raw)
                    and all(_may_follow(x, y)
                            for (x, _), (y, _) in zip(raw, raw[1:])))
            flat = [(kind, idx, exp) for (kind, idx), exp in raw]
            theirs = (is_normal_form(flat, spec.p)
                      and all(abs(exp) == 1 for kind, _, exp in flat
                              if kind in "at"))
            assert ours == theirs, raw
            seen.add(ours)
        assert seen == {True, False}



class TestKernelSample:
    def test_involution_pairs(self):
        phi = KHom(SPEC_INV, HomImage(2, e=(1, 1, 1)))
        words = kernel_words(phi, 2)
        expected = {
            f"e{i} e{j}" for i in (1, 2, 3) for j in (1, 2, 3) if i != j
        }
        assert {fpword_str(w) for w in words} == expected

    def test_single_syllables_only_zero_image_loxodromics(self):
        phi = KHom(SPEC_MIXED, HomImage(5, a=(0,), e=(1,)))
        assert {fpword_str(w) for w in kernel_words(phi, 1)} == {"a1", "a1^-1"}
        phi_nz = KHom(SPEC_MIXED, HomImage(5, a=(1,), e=(1,)))
        assert kernel_words(phi_nz, 1) == []

    def test_closed_under_inversion(self):
        phi = KHom(SPEC_PAIR, HomImage(5, a=(0,), tau=(0,), f=(1,)))
        # four syllables, so that words such as t1 f1 a1 f1^4 reach the
        # swap of the inverse (no kernel word of three has T_1 F_1)
        words = kernel_words(phi, 4)
        wordset = set(words)
        assert words and all(inverse(SPEC_PAIR, w) in wordset for w in words)
        assert FPWord(((("t", 1), 1), (("f", 1), 1), (("a", 1), 1),
                       (("f", 1), 4))) in wordset

    def test_deterministic_order(self):
        phi = KHom(SPEC_INV, HomImage(2, e=(1, 1, 1)))
        assert kernel_words(phi, 3) == kernel_words(phi, 3)

    def test_budget_guard(self):
        phi = KHom(SPEC_FREE, HomImage(5, a=(1, 0, 0, 0, 0, 0)))
        with pytest.raises(BudgetExceeded):
            kernel_words(phi, 4, budget=100)

    def test_budget_counts_every_candidate(self):
        # six free generators: 12 first syllables, then 10 after each one
        # (not the same symbol again), 12 + 120 + 1200 candidates up to 3
        phi = KHom(SPEC_FREE, HomImage(5, a=(1, 2, 0, 3, 0, 4)))
        assert kernel_words(phi, 3, budget=1332)
        with pytest.raises(BudgetExceeded) as exc:
            kernel_words(phi, 3, budget=1331)
        assert (exc.value.required, exc.value.budget) == (1332, 1331)
        assert str(exc.value) == ("enumeration requires 1332 sampled words, "
                                  "exceeding budget 1331")
        # a refusal names the candidates through the level that crossed it
        with pytest.raises(BudgetExceeded) as exc:
            kernel_words(phi, 3, budget=100)
        assert exc.value.required == 132

    def test_last_level_is_looked_up_not_scanned(self, monkeypatch):
        # each syllable power's entries count the products they enter: eight
        # per trie node, 12 + 120 above the last level and one per word on
        # it; a refused run takes no power and forms no product
        products, powers = [], []

        class Counting(complex):
            def __mul__(self, other):
                products.append(1)
                return complex.__mul__(self, other)

            def __rmul__(self, other):
                products.append(1)
                return complex.__rmul__(self, other)

        def counting_powers(m, *tops, real=moebius._powers):
            powers.append(tops)
            return [tuple(map(Counting, x)) for x in real(m, *tops)]

        monkeypatch.setattr(moebius, "_powers", counting_powers)
        phi = KHom(SPEC_FREE, HomImage(5, a=(1, 2, 0, 3, 0, 4)))
        mg = build_matrix_group(SPEC_FREE)
        with pytest.raises(BudgetExceeded):
            purely_loxodromic_sample(mg, phi, 3, 1331)
        assert (powers, products) == ([], [])
        rep = purely_loxodromic_sample(mg, phi, 3, 1332)
        threes = sum(entry["word"].count(" ") == 2 for entry in rep["words"])
        assert len(products) == 8 * (12 + 120 + threes)
        # the counted entries change no float
        monkeypatch.undo()
        assert purely_loxodromic_sample(mg, phi, 3, 1332) == rep

    def test_walk_setup_does_not_grow_with_p(self):
        # a table with an entry per residue would need 10^9 of them here
        phi = KHom(spec_of(1000000008, 1000000007, 2, 0, 0),
                   HomImage(1000000007, a=(1, 0)))
        assert [fpword_str(w) for w in kernel_words(phi, 3)] == [
            "a2^-1", "a2", "a1^-1 a2^-1 a1", "a1^-1 a2 a1", "a1 a2^-1 a1^-1",
            "a1 a2 a1^-1"]

    @pytest.mark.parametrize("shape,hom,length", [
        ((2, 2, 0, 3, 0), HomImage(2, e=(1, 1, 1)), 4),
        ((3, 2, 0, 0, 2), HomImage(2, tau=(1, 0), f=(1, 1)), 4),
        ((9, 3, 1, 1, 2),
         HomImage(3, a=(2,), e=(1,), tau=(1, 0), f=(2, 1)), 3),
        ((26, 5, 6, 0, 0), HomImage(5, a=(1, 2, 0, 3, 0, 4)), 3),
        ((5, 5, 1, 1, 0), HomImage(5, a=(2,), e=(3,)), 4),
        ((6, 5, 1, 0, 1), HomImage(5, a=(0,), tau=(0,), f=(1,)), 4),
        ((6, 5, 1, 0, 1), HomImage(5, a=(3,), tau=(2,), f=(1,)), 4),
        ((8, 7, 1, 0, 1), HomImage(7, a=(3,), tau=(5,), f=(2,)), 3),
        ((12, 7, 0, 3, 0), HomImage(7, e=(1, 2, 6)), 3),
    ])
    def test_matches_brute_force(self, shape, hom, length):
        # the brute-force words are the candidates that the walk counts
        # from the symbol widths, so a budget one short of them is refused
        # with their number
        phi = KHom(spec_of(*shape), hom)
        want, candidates = brute_kernel_words(phi, length)
        assert want and kernel_words(phi, length, candidates) == want
        with pytest.raises(BudgetExceeded, match=f"requires {candidates} "):
            kernel_words(phi, length, candidates - 1)

    def test_all_members_nonidentity(self):
        phi = KHom(SPEC_MIXED, HomImage(5, a=(2,), e=(3,)))
        words = kernel_words(phi, 3)
        assert words
        for w in words:
            assert w.syllables
            assert kernel_membership(phi, w)

    def test_distinct_kernels_match_signatures(self):
        # over ALL valid images on a tiny spec, kernels (as sets of short
        # members) biject with scale-normalised signatures
        spec = spec_of(3, 3, 1, 1, 0)
        homs = [
            KHom(spec, HomImage(3, a=(a,), e=(e,)))
            for a in range(3)
            for e in (1, 2)
        ]
        kernels = {
            frozenset(kernel_words(phi, 3)) for phi in homs
        }
        # a hom onto Z_p is fixed by its kernel up to a unit, so the image
        # vector scaled to make its first nonzero entry 1 names the kernel
        signatures = set()
        for phi in homs:
            flat = sum(phi.hom[1:], ())  # a, e, tau, f
            lam = pow(next(c for c in flat if c), -1, 3)
            signatures.add(tuple(lam * c % 3 for c in flat))
        assert len(kernels) == len(signatures)
