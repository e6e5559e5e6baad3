import random

import pytest

from perfbench.checkers import is_normal_form, parse_syllables
from schottky_strata.freegroup import AbelianHom, schreier_kernel
from schottky_strata.homorbits import HomImage
from schottky_strata.strata import AdmissibleTuple, enumerate_tuples
from schottky_strata.cyclic_schottky import (
    FPWord,
    KHom,
    build_spec,
    fpword_str,
    kernel_membership,
    kernel_presentation,
    normalized_homs,
    symbols,
)


def spec_of(g, p, t, r, s):
    return build_spec(AdmissibleTuple(g, p, t, r, s))


def pivot_kind(a, r, tau):
    """Pivot kind of a hom's images; None for the kinds not certified."""
    if r:
        return "e"
    if tau:
        return "f" if tau[0] else None
    nonzero = [j for j, c in enumerate(a) if c]
    if not nonzero or nonzero[0] == len(a) - 1:
        return None
    return "a, later nonzero" if len(nonzero) > 1 else "a, later zero"


def certificate_homs():
    """Seeded homs onto Z_p, p up to 31 and g up to 40, four per pivot kind:
    E_1, F_1 with tau_1 != 0, and A_j with the later A images all zero or
    not all zero.  The first of each kind has p = 31."""
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    rng = random.Random(2026)
    out = {}
    for kind in ("e", "f", "a, later zero", "a, later nonzero"):
        for p in (31,) + tuple(rng.choice(primes) for _ in range(3)):
            while True:
                t, r, s = rng.randint(0, 4), rng.randint(0, 5), rng.randint(0, 3)
                g = p * (t + r + s - 1) + 1 - r
                a = tuple(rng.randrange(p) for _ in range(t))
                tau = tuple(rng.randrange(p) for _ in range(s))
                if pivot_kind(a, r, tau) == kind and 2 <= g <= 40:
                    break
            hom = HomImage(p, a=a, e=tuple(rng.randrange(1, p) for _ in range(r)),
                           tau=tau, f=tuple(rng.randrange(1, p) for _ in range(s)))
            out.setdefault(kind, []).append(KHom(spec_of(g, p, t, r, s), hom))
    return out


SPEC_FREE = spec_of(26, 5, 6, 0, 0)
SPEC_INV = spec_of(2, 2, 0, 3, 0)
SPEC_MIXED = spec_of(5, 5, 1, 1, 0)
SPEC_PAIR = spec_of(6, 5, 1, 0, 1)


class TestGroupSpec:
    def test_free_type(self):
        assert symbols(SPEC_FREE) == [("a", j) for j in range(1, 7)]

    def test_involution_type(self):
        assert symbols(SPEC_INV) == [("e", 1), ("e", 2), ("e", 3)]

    def test_mixed_type(self):
        assert symbols(SPEC_MIXED) == [("a", 1), ("e", 1)]

    def test_pair_type(self):
        assert symbols(SPEC_PAIR) == [("a", 1), ("t", 1), ("f", 1)]

    def test_generator_count(self):
        tup = AdmissibleTuple(14, 5, 1, 2, 1)
        assert len(symbols(build_spec(tup))) == 1 + 2 + 2 * 1


class TestNormalForm:
    def test_round_trip(self):
        for syllables, text in [
            ([(("a", 1), 1)], "a1"),
            ([(("e", 1), 4), (("a", 1), 1), (("e", 1), 1)], "e1^4 a1 e1"),
            ([(("t", 1), -3), (("f", 1), 2)], "t1^-3 f1^2"),
            ([(("a", 1), 2), (("t", 1), 1), (("f", 1), 4)], "a1^2 t1 f1^4"),
        ]:
            assert fpword_str(FPWord(tuple(syllables))) == text
            assert parse_syllables(text) == [(kind, idx, exp) for (kind, idx),
                                             exp in syllables]


class TestKernelMembership:
    def test_relator_is_member(self):
        phi = KHom(SPEC_INV, HomImage(2, e=(1, 1, 1)))
        assert kernel_membership(phi, FPWord(()))  # e1^2 is the identity

    def test_conjugate_in_kernel(self):
        phi = KHom(SPEC_MIXED, HomImage(5, a=(0,), e=(1,)))
        w = FPWord(((("e", 1), 1), (("a", 1), 1), (("e", 1), 4)))
        assert kernel_membership(phi, w)

    def test_nonmember(self):
        phi = KHom(SPEC_MIXED, HomImage(5, a=(0,), e=(1,)))
        w = FPWord(((("e", 1), 2), (("a", 1), 1)))
        assert not kernel_membership(phi, w)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            KHom(SPEC_MIXED, HomImage(5, a=(0, 0), e=(1,)))

    @pytest.mark.parametrize("sym", [("e", 0), ("e", 2), ("t", 1), ("x", 1)])
    def test_symbol_off_the_roster_rejected(self, sym):
        # e0 once read e1's image (index -1), so e0^5 passed as a member;
        # t1 raised a bare IndexError and the unknown kind x a KeyError
        phi = KHom(SPEC_MIXED, HomImage(5, a=(0,), e=(1,)))
        with pytest.raises(ValueError, match="not a symbol of the roster") as exc:
            kernel_membership(phi, FPWord(((sym, 5),)))
        assert repr(sym) in str(exc.value)
        assert phi.image(("e", 1)) == 1


class TestKernelPresentation:
    def test_free_case_rank(self):
        phi = KHom(SPEC_FREE, HomImage(5, a=(1, 0, 0, 0, 0, 0)))
        words = kernel_presentation(phi)
        assert len(words) == 26
        # free case agrees with the Schreier construction on F_6 -> Z_5
        free_phi = AbelianHom(6, (5,), ((1,), (0,), (0,), (0,), (0,), (0,)))
        assert len(schreier_kernel(free_phi)) == 26

    def test_involution_case(self):
        phi = KHom(SPEC_INV, HomImage(2, e=(1, 1, 1)))
        assert [fpword_str(w) for w in kernel_presentation(phi)] == [
            "e1 e2",
            "e1 e3",
        ]

    def test_mixed_case_conjugates(self):
        phi = KHom(SPEC_MIXED, HomImage(5, a=(0,), e=(1,)))
        words = kernel_presentation(phi)
        assert [fpword_str(w) for w in words] == [
            "a1",
            "e1 a1 e1^4",
            "e1^2 a1 e1^3",
            "e1^3 a1 e1^2",
            "e1^4 a1 e1",
        ]

    def test_pair_case(self):
        phi = KHom(SPEC_PAIR, HomImage(5, a=(0,), tau=(0,), f=(1,)))
        words = kernel_presentation(phi)
        assert len(words) == 6
        assert all(kernel_membership(phi, w) for w in words)

    def test_nonunit_pivot_image_rescaled(self):
        # phi(E_1) = 3: transversal indexing rescales internally
        phi = KHom(SPEC_MIXED, HomImage(5, a=(2,), e=(3,)))
        words = kernel_presentation(phi)
        assert len(words) == 5
        assert all(kernel_membership(phi, w) for w in words)

    @pytest.mark.parametrize("p", [2, 3])
    def test_exhaustive_small_primes(self, p):
        for t in range(3):
            for r in range(4):
                for s in range(3):
                    g = p * (t + r + s - 1) + 1 - r
                    if g < 2:
                        continue
                    spec = spec_of(g, p, t, r, s)
                    for phi in normalized_homs(spec):
                        words = kernel_presentation(phi)
                        assert len(words) == g
                        assert all(kernel_membership(phi, w) for w in words)

    def test_random_unnormalized_homs(self):
        import random

        rng = random.Random(31)
        runs = 0
        while runs < 60:
            p = rng.choice([2, 3, 5, 7])
            t, r, s = rng.randint(0, 2), rng.randint(0, 3), rng.randint(0, 2)
            g = p * (t + r + s - 1) + 1 - r
            if g < 2:
                continue
            spec = spec_of(g, p, t, r, s)
            a = tuple(rng.randrange(p) for _ in range(t))
            e = tuple(rng.randrange(1, p) for _ in range(r))
            tau = tuple(rng.randrange(p) for _ in range(s))
            f = tuple(rng.randrange(1, p) for _ in range(s))
            if not any(a + e + tau + f):
                continue
            phi = KHom(spec, HomImage(p, a=a, e=e, tau=tau, f=f))
            words = kernel_presentation(phi)
            assert len(words) == g
            assert all(kernel_membership(phi, w) for w in words)
            runs += 1

    def test_pair_case_words(self):
        # F_1 is the pivot, so T_1 is kept at coset 0: t1 f1^-phi(T_1)
        phi = KHom(SPEC_PAIR, HomImage(5, a=(3,), tau=(2,), f=(1,)))
        assert [fpword_str(w) for w in kernel_presentation(phi)] == [
            "a1 f1^2",
            "f1 a1 f1",
            "f1^2 a1",
            "f1^3 a1 f1^4",
            "f1^4 a1 f1^3",
            "t1 f1^3",
        ]

    def test_loxodromic_pivot_words(self):
        # A_2 is the pivot (images rescaled by 2), A_3 maps to 2 after rescaling
        phi = KHom(spec_of(7, 3, 3, 0, 0), HomImage(3, a=(0, 2, 1)))
        assert [fpword_str(w) for w in kernel_presentation(phi)] == [
            "a1",
            "a2 a1 a2^-1",
            "a2^2 a1 a2^-2",
            "a2^3",
            "a3 a2^-2",
            "a2 a3",
            "a2^2 a3 a2^-1",
        ]

    @pytest.mark.parametrize("kind", ["e", "f", "a, later zero", "a, later nonzero"])
    def test_coset_enumeration_certifies_basis(self, kind):
        # g words in the kernel, free of rank g, that span a subgroup of
        # index p: since free groups are Hopfian, the words are a free basis
        pytest.importorskip("sympy")
        from perfbench.checkers import coset_index

        for phi in certificate_homs()[kind]:
            tup = phi.spec
            words = kernel_presentation(phi)
            assert len(words) == tup.g
            assert all(kernel_membership(phi, w) for w in words)
            syllables = [[(k, i, e) for (k, i), e in w.syllables] for w in words]
            assert coset_index(tup.p, tup.t, tup.r, tup.s, syllables) == tup.p

    def test_words_are_written_in_normal_form(self):
        # every basis word passes the benchmark's own normal-form check and
        # its text parses back to its syllables: over the certificate homs
        # and, for every tuple with p <= 7 and g <= 30, the first
        # normalized hom and one seeded hom with a and tau not all zero
        rng = random.Random(28)
        homs = [phi for kind in certificate_homs().values() for phi in kind]
        for p in (2, 3, 5, 7):
            for g in range(2, 31):
                for tup in enumerate_tuples(g, p):
                    spec = build_spec(tup)
                    homs.append(next(normalized_homs(spec)))
                    a = tuple(rng.randrange(p) for _ in range(tup.t))
                    tau = tuple(rng.randrange(p) for _ in range(tup.s))
                    if not any(a + tau):
                        a, tau = (1,) * tup.t, (1,) * tup.s
                    homs.append(KHom(spec, HomImage(
                        p, a=a, e=tuple(rng.randrange(1, p) for _ in range(tup.r)),
                        tau=tau, f=tuple(rng.randrange(1, p) for _ in range(tup.s)))))
        assert len(homs) > 1000
        for phi in homs:
            for w in kernel_presentation(phi):
                syllables = [(k, i, e) for (k, i), e in w.syllables]
                assert is_normal_form(syllables, phi.spec.p), (phi, w)
                assert parse_syllables(fpword_str(w)) == syllables


class TestNormalizedHoms:
    def test_free_case_single_representative(self):
        assert [k.hom for k in normalized_homs(SPEC_FREE)] == [
            HomImage(5, a=(1, 0, 0, 0, 0, 0))
        ]

    def test_unit_sweep(self):
        homs = list(normalized_homs(SPEC_MIXED))
        assert len(homs) == 4
        assert all(h.hom.a == (0,) for h in homs)
        assert {h.hom.e for h in homs} == {(1,), (2,), (3,), (4,)}

    def test_counts(self):
        spec = spec_of(9, 5, 0, 2, 1)
        assert sum(1 for _ in normalized_homs(spec)) == 4 * 4 * 4
