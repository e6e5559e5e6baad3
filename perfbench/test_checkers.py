"""The benchmark's checkers against brute force on small cases.

The brute-force counts here enumerate the objects directly and share no
code with the checkers or with the package under test.
"""

import itertools
import random

import pytest

from perfbench import checkers as ck

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def brute_triples(g, p):
    return sorted((t, r, s)
                  for t in range(g + 2) for r in range(g + 2) for s in range(g + 2)
                  if g == p * (t + r + s - 1) + 1 - r)


def test_stratum_count_and_triples_match_brute_force():
    for p in SMALL_PRIMES:
        for g in range(2, 25):
            triples = brute_triples(g, p)
            assert ck.stratum_triples(g, p) == triples, (g, p)
            assert ck.stratum_count(p, g) == len(triples), (g, p)


def test_stratum_count_matches_loop_at_large_genus():
    for p in (2, 3, 5, 31):
        for g in (997, 5000, 123457):
            loop = sum(n + 1 for n in range((g + p - 1) // p + 1)
                       if (g - n) % (p - 1) == 0)
            assert ck.stratum_count(p, g) == loop


def test_published_lists():
    for (g, p) in ck.PUBLISHED_TSR:
        assert ck.stratum_triples(g, p) == ck.published_trs(g, p)
    assert [ck.stratum_count(p, g) for g, p in ck.PUBLISHED_TSR] == [2, 3, 1, 12, 16]


def test_dimension_is_integral_on_admissible_tuples():
    for p in SMALL_PRIMES:
        for g in range(2, 30):
            for t, r, s in ck.stratum_triples(g, p):
                assert ck.stratum_dimension(g, p, r) == 3 * (t + s - 1) + 2 * r


def _classes(p, block):
    return tuple(sorted(min(c, p - c) for c in block))


def brute_orbits(p, r, s, scaled):
    units = range(1, p)
    forms = set()
    for vec in itertools.product(units, repeat=r + s):
        lams = units if scaled else (1,)
        forms.add(min((_classes(p, [lam * c % p for c in vec[:r]]),
                       _classes(p, [lam * c % p for c in vec[r:]])) for lam in lams))
    return len(forms)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_orbit_counts_match_brute_force(p):
    for r in range(4):
        for s in range(4):
            if (p - 1) ** (r + s) > 3000:
                continue
            assert ck.plain_orbit_count(p, r, s) == brute_orbits(p, r, s, False)
            assert ck.plain_orbit_count(p, r, s) == ck.m_binomial(p, r, s)
            assert ck.scaled_orbit_count(p, r, s) == brute_orbits(p, r, s, True)


def test_rotation_orbits_match_brute_force():
    for p in (5, 7, 11, 13):
        for m in range(1, 6):
            if (p - 1) ** m > 5000:
                continue
            forms = {min(tuple(sorted(lam * c % p for c in vec)) for lam in range(1, p))
                     for vec in itertools.product(range(1, p), repeat=m)}
            assert ck.rotation_orbit_count(p, m) == len(forms), (p, m)


def brute_kernel_words(t, r, s, images, p, max_syllables):
    symbols = ([("a", j) for j in range(1, t + 1)] + [("e", j) for j in range(1, r + 1)]
               + [x for k in range(1, s + 1) for x in (("t", k), ("f", k))])
    syllables = [(kind, idx, e) for kind, idx in symbols
                 for e in (range(1, p) if kind in "ef" else (-1, 1))]
    count = 0
    for n in range(1, max_syllables + 1):
        for word in itertools.product(syllables, repeat=n):
            if (ck.is_normal_form(list(word), p)
                    and ck.structural_image_sum(word, images, p) == 0):
                count += 1
    return count


def test_kernel_word_count_matches_enumeration():
    rng = random.Random(7)
    for p, t, r, s, length in [(2, 1, 1, 1, 3), (3, 1, 1, 1, 3), (5, 1, 1, 0, 3),
                               (3, 0, 1, 1, 4), (5, 0, 0, 1, 3), (2, 2, 0, 0, 4)]:
        images = {"a": [rng.randrange(p) for _ in range(t)],
                  "e": [rng.randrange(1, p) for _ in range(r)],
                  "t": [rng.randrange(p) for _ in range(s)],
                  "f": [rng.randrange(1, p) for _ in range(s)]}
        assert (ck.kernel_word_count(t, r, s, images, p, length)
                == brute_kernel_words(t, r, s, images, p, length)), (p, t, r, s)


def test_image_sums_and_normal_form():
    images = {"a": [1, 0], "e": [2], "t": [0], "f": [3]}
    word = ck.parse_syllables("a1 e1^3 t1^-1 f1 a2^-2")
    assert word == [("a", 1, 1), ("e", 1, 3), ("t", 1, -1), ("f", 1, 1), ("a", 2, -2)]
    assert ck.structural_image_sum(word, images, 5) == (1 + 6 + 3) % 5
    assert ck.is_normal_form(word, 5)
    assert not ck.is_normal_form(ck.parse_syllables("f1 t1"), 5)
    assert not ck.is_normal_form(ck.parse_syllables("e1^5"), 5)
    assert not ck.is_normal_form(ck.parse_syllables("a1 a1"), 5)
    assert ck.free_image_sum((1, -2, 1), [2, 4], 5) == 0


def test_trace_classification():
    import cmath
    import math

    assert not ck.trace_is_loxodromic(2 * math.cos(math.pi / 5), 0.0, 1e-9)
    assert not ck.trace_is_loxodromic(2.0, 0.0, 1e-9)
    assert ck.trace_is_loxodromic(3.0, 0.0, 1e-9)
    z = 2 * cmath.cosh(complex(0.3, 0.4))
    assert ck.trace_is_loxodromic(z.real, z.imag, 1e-9)


def test_coset_index():
    pytest.importorskip("sympy")
    # Z * Z_5 with a -> 0, e -> 1: the conjugates e^i a e^-i generate the kernel
    kernel = [[("e", 1, i), ("a", 1, 1), ("e", 1, -i)] for i in range(5)]
    assert ck.coset_index(5, 1, 1, 0, kernel) == 5
    # a^9 has index 9 in the infinite cyclic group
    assert ck.coset_index(5, 1, 0, 0, [[("a", 1, 9)]]) == 9
