import itertools
import random

import pytest

from perfbench.checkers import is_normal_form, parse_syllables
from schottky_strata.freegroup import AbelianHom, schreier_kernel
from schottky_strata.homorbits import HomImage
from schottky_strata.strata import (AdmissibleTuple, BudgetExceeded,
                                    enumerate_tuples)
from schottky_strata.cyclic_schottky import (
    FPWord,
    KHom,
    _kernel_walk,
    _may_follow,
    _syllable_alphabet,
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


def kernel_words(phi, max_syllables, budget=10**6, built=None):
    """The kernel words of ``_kernel_walk``, each level's nodes extended by
    syllable tuples; every node is also appended to ``built``."""
    nodes, words = [()], []
    for children, kernel in _kernel_walk(phi, max_syllables, budget,
                                         lambda syllable: syllable):
        nodes = [syls + (syl,) for syls, nxt in zip(nodes, children)
                 for syl in nxt]
        if built is not None:
            built.extend(nodes)
        words += [FPWord(nodes[i]) for i in kernel]
    return words


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

    def test_refuses_before_building_any_payload(self):
        # one product per edge of each level, as the walk's callers make
        phi = KHom(SPEC_FREE, HomImage(5, a=(1, 2, 0, 3, 0, 4)))
        built = []
        with pytest.raises(BudgetExceeded):
            kernel_words(phi, 3, 1331, built)
        assert built == []
        # one payload per trie node above the last level, one per word on it
        words = kernel_words(phi, 3, 1332, built)
        assert len(built) == 12 + 120 + sum(len(w.syllables) == 3 for w in words)

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
        # every word over the alphabet whose neighbours may follow each
        # other, by length and then lexicographically, kept when in the
        # kernel: an enumeration that shares no code with the walk.  Those
        # words are the candidates that the walk counts from the symbol
        # widths, so a budget one short of them is refused with their number
        phi = KHom(spec_of(*shape), hom)
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
