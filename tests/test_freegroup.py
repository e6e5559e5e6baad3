import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from schottky_strata import freegroup
from schottky_strata.freegroup import (
    INFINITE,
    AbelianHom,
    FreeWord,
    example1_data,
    fold,
    hom_image,
    index_and_rank,
    map_letters,
    membership,
    parse_word,
    schreier_kernel,
    verify_example1,
)


def W(text, rank=2):
    return parse_word(text, rank)


def graph_key(graph):
    """A hashable form of a folded graph, equal exactly when the graphs are."""
    return graph.rank, tuple(tuple(sorted(d.items())) for d in graph.adj)


def naive_fold_key(rank, words):
    """``graph_key`` of the subgroup, folded the plain way: the
    whole bouquet of loops at vertex 0 is built first, then the targets of
    two equal-labelled edges at one vertex are merged until no two are
    left, then the vertices are numbered breadth-first from the basepoint
    (letters a, A, b, B, ...)."""
    edges = set()  # (u, x, v) for an x-edge u -> v, x > 0
    n = 1
    for w in words:
        if not w.letters:
            continue
        path = [0, *range(n, n + len(w.letters) - 1), 0]
        n += len(w.letters) - 1
        for u, x, v in zip(path, w.letters, path[1:]):
            edges.add((u, x, v) if x > 0 else (v, -x, u))
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    merged = True
    while merged:
        merged = False
        seen = {}
        for u, x, v in edges:
            for slot, target in (((find(u), x), find(v)),
                                 ((find(v), -x), find(u))):
                other = find(seen.setdefault(slot, target))
                if other != find(target):
                    parent[find(target)] = other
                    merged = True
    adj = {}
    for u, x, v in edges:
        adj.setdefault(find(u), {})[x] = find(v)
        adj.setdefault(find(v), {})[-x] = find(u)
    label = {find(0): 0}
    queue = [find(0)]
    for v in queue:
        for g in range(1, rank + 1):
            for x in (g, -g):
                w = adj.get(v, {}).get(x)
                if w is not None and w not in label:
                    label[w] = len(label)
                    queue.append(w)
    relabelled = [None] * len(label)
    for v, i in label.items():
        relabelled[i] = tuple(sorted((x, label[w])
                                     for x, w in adj.get(v, {}).items()))
    return (rank, tuple(relabelled))


@st.composite
def _generator_lists(draw):
    # unreduced letter lists (FreeWord reduces them), empty words and
    # repeated generators
    rank = draw(st.integers(1, 4))
    letter = st.integers(1, rank).flatmap(lambda g: st.sampled_from((g, -g)))
    words = draw(st.lists(st.lists(letter, max_size=10), min_size=1,
                          max_size=6))
    words += [words[i] for i in draw(
        st.lists(st.integers(0, len(words) - 1), max_size=3))]
    return rank, [FreeWord(rank, tuple(w)) for w in words]


class TestReduce:
    def test_cancellation(self):
        assert FreeWord(2, (1, -1)).letters == ()

    def test_inner_cancellation(self):
        assert W("abBa").letters == (1, 1)

    def test_conjugate_times_inverse(self):
        assert FreeWord(2, W("bbbaBBB").letters
                        + W("bbbABBB").letters).letters == ()

    def test_parse_examples(self):
        assert W("bAB").letters == (2, -1, -2)

    def test_round_trip(self):
        # parse_word reads back a..z / A..Z text written from the letters
        rng = random.Random(42)
        for _ in range(200):
            letters = []
            for _ in range(rng.randint(0, 12)):
                x = rng.choice([1, -1, 2, -2, 3, -3])
                if letters and letters[-1] == -x:
                    continue
                letters.append(x)
            w = FreeWord(3, tuple(letters))
            text = "".join(chr(ord("a" if x > 0 else "A") + abs(x) - 1)
                           for x in letters)
            assert parse_word(text, 3) == w

    def test_rejects_foreign_letters(self):
        with pytest.raises(ValueError):
            parse_word("ab1", 2)
        with pytest.raises(ValueError):
            parse_word("abc", 2)  # c is outside rank 2
        with pytest.raises(ValueError):
            FreeWord(2, (1, 0))

    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=30))
    @settings(max_examples=300)
    def test_idempotent_and_nonincreasing(self, letters):
        w = FreeWord(2, tuple(letters))
        assert len(w.letters) <= len(letters)
        assert FreeWord(2, w.letters).letters == w.letters

    def test_inverse(self):
        w = W("ab")
        assert (~w).letters == (-2, -1)
        assert FreeWord(2, (~w).letters + w.letters).letters == ()


class TestHomImage:
    def setup_method(self):
        self.theta = AbelianHom(2, (5, 5), ((1, 0), (0, 1)))
        self.k1 = AbelianHom(2, (5,), ((0,), (1,)))

    def test_b5_in_kernel(self):
        assert hom_image(self.theta, W("bbbbb")) == (0, 0)

    def test_a_not_in_kernel(self):
        assert hom_image(self.theta, W("a")) == (1, 0)

    def test_k1_membership_by_image(self):
        # A^3 B A^-3 has image (0,1): not in the first intermediate group
        assert hom_image(self.theta, W("aaabAAA")) == (0, 1)
        assert hom_image(self.k1, W("aaabAAA")) != (0,)
        # B^3 A B^-3 has image (1,0): it is a member
        assert hom_image(self.theta, W("bbbaBBB")) == (1, 0)
        assert hom_image(self.k1, W("bbbaBBB")) == (0,)


class TestFold:
    @settings(max_examples=300, deadline=None)
    @given(_generator_lists())
    # a word that is not cyclically reduced, read from an empty graph
    @example((3, [FreeWord(3, ()), FreeWord(3, (3, 1, -3))]))
    # ABB is read through a vertex that closing ABa merged away
    @example((2, [FreeWord(2, (-1, -2, 1)), FreeWord(2, (-1, -2, -2))]))
    def test_matches_naive_bouquet_fold(self, case):
        rank, words = case
        assert graph_key(fold(words)) == naive_fold_key(rank, words)

    def test_reads_after_the_first_merge(self, monkeypatch):
        # the first merge comes with the fourth word, so it and the fifth
        # are read through merged vertices; together the words generate
        # the index-3 kernel of a, b -> 1
        words = [W(text) for text in ("aaa", "bbb", "abbbA", "aB", "Ba")]
        merges = []
        real = freegroup._flush_folds
        monkeypatch.setattr(freegroup, "_flush_folds",
                            lambda *args: merges.append(args) or real(*args))
        fold(words[:3])
        assert not merges
        graph = fold(words[:4])
        assert merges and len(graph.adj) == 4
        graph = fold(words)
        assert graph_key(graph) == naive_fold_key(2, words)
        assert index_and_rank(graph) == (3, 4)
        assert graph == fold(schreier_kernel(AbelianHom(2, (3,), ((1,), (1,)))))

    def test_rank_26_where_the_row_halves_meet(self):
        # while folding, letter z sits at slot 26 and Z at slot 27 of a
        # vertex's row, where its two halves meet: words over a, y, z and
        # their inverses, with and without merges, against the naive fold
        rng = random.Random(26)
        alphabet = (1, -1, 25, -25, 26, -26)
        for _ in range(300):
            words = [FreeWord(26, tuple(rng.choice(alphabet)
                                        for _ in range(rng.randint(0, 8))))
                     for _ in range(rng.randint(1, 5))]
            assert graph_key(fold(words)) == naive_fold_key(26, words), words
        words = [W(text, 26) for text in ("zzz", "yZ", "zYzy", "aZ")]
        assert graph_key(fold(words)) == naive_fold_key(26, words)
        # the kernel of z -> 1 onto Z_3: index 3, rank 1 + 3 * 25
        images = ((0,),) * 25 + ((1,),)
        graph = fold(schreier_kernel(AbelianHom(26, (3,), images)))
        assert index_and_rank(graph) == (3, 76)

    def test_whole_group(self):
        g = fold([W("a"), W("b")])
        assert len(g.adj) == 1
        assert index_and_rank(g) == (1, 2)

    def test_square_and_b(self):
        # <A^2, B> is free of rank 2 with infinite index: the valence-two
        # midpoint of the A^2 loop has no B-edges, so the graph is incomplete
        # (an index-2 subgroup of F_2 would have rank 3)
        g = fold([W("aa"), W("b")])
        assert len(g.adj) == 2
        assert index_and_rank(g) == (INFINITE, 2)

    def test_index_two_subgroup(self):
        g = fold([W("aa"), W("b"), W("abA")])
        assert len(g.adj) == 2
        assert index_and_rank(g) == (2, 3)

    def test_example1_c_words(self):
        g = fold(example1_data()["c_words"])
        assert len(g.adj) == 5
        assert index_and_rank(g) == (5, 6)
        assert all(len(adj) == 4 for adj in g.adj)  # complete at every vertex

    def test_basepoint_absorbed_by_fold(self):
        # closing a one-letter loop can force the basepoint class to merge
        # with an interior vertex; the base must survive as vertex 0
        gens = [W("bbAba"), W("A")]
        graph = fold(gens)
        assert membership(graph, W("A"))
        assert membership(graph, W("bbAba"))
        assert membership(graph, W("bbAbaA"))

    def test_random_soundness_and_confluence(self):
        rng = random.Random(123)
        alphabet = [1, -1, 2, -2, 3, -3]
        for _ in range(150):
            rank = rng.randint(1, 3)
            gens = []
            for _ in range(rng.randint(1, 5)):
                letters = [rng.choice(alphabet[: 2 * rank])
                           for _ in range(rng.randint(1, 8))]
                w = FreeWord(rank, tuple(letters))
                if w.letters:
                    gens.append(w)
            if not gens:
                continue
            graph = fold(gens)
            for _ in range(10):
                letters = ()
                for _ in range(rng.randint(1, 6)):
                    g = rng.choice(gens)
                    letters += (g if rng.random() < 0.5 else ~g).letters
                assert membership(graph, FreeWord(rank, letters))
            shuffled = list(gens)
            rng.shuffle(shuffled)
            assert fold(shuffled) == graph

    @given(
        st.integers(1, 3).flatmap(
            lambda rank: st.lists(
                st.lists(st.sampled_from(
                    [x for g in range(1, rank + 1) for x in (g, -g)]
                ), max_size=10).map(
                    lambda letters, rank=rank: FreeWord(rank, tuple(letters))
                ),
                min_size=1, max_size=5,
            )
        )
    )
    @settings(max_examples=300)
    def test_folded_graph_is_a_core(self, gens):
        # a reduced word never has x followed by -x, so every inner vertex
        # of its loop has two distinct labels and folding keeps them
        graph = fold(gens)
        assert all(len(edges) >= 2 for edges in graph.adj[1:])

    def test_confluence_under_shuffles(self):
        data = example1_data()
        base = fold(data["c_words"])
        rng = random.Random(7)
        seen = set()
        for _ in range(100):
            words = list(data["c_words"])
            rng.shuffle(words)
            g = fold(words)
            assert g == base
            seen.add(graph_key(g))
        assert len(seen) == 1


class TestMembership:
    def setup_method(self):
        self.graph = fold(example1_data()["c_words"])

    def test_b5(self):
        assert membership(self.graph, W("bbbbb"))

    def test_b_fails(self):
        assert not membership(self.graph, W("b"))

    def test_empty_word(self):
        assert membership(self.graph, FreeWord(2, ()))

    def test_soundness_sampling(self):
        # products of generators are members; words with nonzero image are not
        data = example1_data()
        k1 = data["k1_hom"]
        rng = random.Random(3)
        words = data["c_words"]
        for _ in range(200):
            letters = ()
            for _ in range(rng.randint(1, 5)):
                pick = rng.choice(words)
                letters += (pick if rng.random() < 0.5 else ~pick).letters
            assert membership(self.graph, FreeWord(2, letters))
        for _ in range(200):
            letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 9))]
            w = FreeWord(2, tuple(letters))
            if hom_image(k1, w) != (0,):
                assert not membership(self.graph, w)


class TestSchreier:
    def test_rank_two_to_z5(self):
        phi = AbelianHom(2, (5,), ((1,), (0,)))
        gens = schreier_kernel(phi)
        assert len(gens) == 6 == 1 + 5 * (2 - 1)
        assert all(hom_image(phi, w) == (0,) for w in gens)
        # same subgroup as the positive-transversal basis {a^5, a^i b a^-i}
        alt = [W("aaaaa")] + [W("a" * i + "b" + "A" * i) for i in range(5)]
        assert fold(gens) == fold(alt)

    def test_theta_kernel_size(self):
        gens = schreier_kernel(example1_data()["theta"])
        assert len(gens) == 26
        assert index_and_rank(fold(gens)) == (25, 26)

    def test_rank_one(self):
        phi = AbelianHom(1, (2,), ((1,),))
        gens = schreier_kernel(phi)
        assert [w.letters for w in gens] == [(1, 1)]

    def test_non_surjective_rejected(self):
        with pytest.raises(ValueError):
            schreier_kernel(AbelianHom(2, (5,), ((0,), (0,))))

    def test_vanishing_modulus_is_refused_before_the_coset_tables(
            self, monkeypatch):
        # a 10^6-coset codomain that no image reaches: no table is built
        calls = []
        real = freegroup._coset_steps
        monkeypatch.setattr(freegroup, "_coset_steps",
                            lambda phi: calls.append(phi) or real(phi))
        with pytest.raises(ValueError, match="^homomorphism is not "
                           "surjective onto its codomain$"):
            schreier_kernel(AbelianHom(3, (1000003,), ((0,), (0,), (0,))))
        with pytest.raises(ValueError, match="not surjective"):
            schreier_kernel(AbelianHom(2, (3, 5), ((1, 0), (2, 5))))
        assert calls == []

    def test_nielsen_schreier_law_random(self):
        rng = random.Random(11)
        for _ in range(30):
            k = rng.randint(1, 4)
            p = rng.choice([2, 3, 5, 7])
            images = [(rng.randrange(p),) for _ in range(k)]
            if all(v == (0,) for v in images):
                images[rng.randrange(k)] = (rng.randrange(1, p),)
            phi = AbelianHom(k, (p,), tuple(images))
            gens = schreier_kernel(phi)
            assert len(gens) == 1 + p * (k - 1)
            graph = fold(gens)
            idx, rank = index_and_rank(graph)
            assert (idx, rank) == (p, 1 + p * (k - 1))
            assert all(membership(graph, w) for w in gens)


def reference_schreier_letters(phi):
    """Letters of the Schreier words by the plain formula: every
    u x (rep of u.x)^-1 over the shortlex-least transversal, validated and
    reduced by ``FreeWord``, the empty ones dropped.  Cosets are tuples
    that step by the signed generator images, not the integer tables of
    ``schreier_kernel``."""
    k = phi.rank
    zero = (0,) * len(phi.moduli)

    def step(c, x):
        img = phi.images[abs(x) - 1]
        sign = 1 if x > 0 else -1
        return tuple((ci + sign * v) % m
                     for ci, v, m in zip(c, img, phi.moduli))

    reps, queue = {zero: ()}, [zero]
    for c in queue:  # breadth-first, letters a, A, b, B, ...
        for x in (y for g in range(1, k + 1) for y in (g, -g)):
            d = step(c, x)
            if d not in reps:
                reps[d] = reps[c] + (x,)
                queue.append(d)
    if len(reps) != math.prod(phi.moduli):
        raise ValueError("homomorphism is not surjective onto its codomain")
    out = []
    for c in queue:
        for x in range(1, k + 1):
            v = reps[step(c, x)]
            w = FreeWord(k, reps[c] + (x,) + tuple(-y for y in reversed(v)))
            if w.letters:
                out.append(w.letters)
    return out


# the (p, k) shapes of the kernels benchmark's Schreier slots: a rank-k free
# group onto Z_p, about 560 words and 2,100 to 3,100 letters in all
_BENCH_SHAPES = [(47, 12), (53, 11), (61, 10), (71, 9), (83, 8), (97, 7)]


class TestTrustedSchreierWords:
    @pytest.mark.parametrize("p,k", _BENCH_SHAPES)
    def test_benchmark_shapes(self, p, k):
        rng = random.Random(f"schreier-bench:{p}:{k}")
        images = [rng.randrange(p) for _ in range(k)]
        images[rng.randrange(k)] = rng.randrange(1, p)  # onto Z_p
        phi = AbelianHom(k, (p,), tuple((v,) for v in images))
        words = schreier_kernel(phi)
        assert [w.letters for w in words] == reference_schreier_letters(phi)
        graph = fold(words)
        assert index_and_rank(graph) == (p, 1 + p * (k - 1))
        assert graph_key(graph) == naive_fold_key(k, words)

    @pytest.mark.parametrize("moduli", [(2,), (7,), (2, 3), (5, 5)])
    def test_reduced_by_construction(self, moduli):
        rng = random.Random(f"schreier:{moduli}")
        for k in range(1, 7):
            for _ in range(4):
                images = tuple(tuple(rng.randrange(m) for m in moduli)
                               for _ in range(k))
                phi = AbelianHom(k, moduli, images)
                try:
                    words = schreier_kernel(phi)
                except ValueError:  # not surjective
                    continue
                assert all(w.letters for w in words)
                assert all(FreeWord(k, w.letters) == w for w in words)
                assert [w.letters for w in words] == \
                    reference_schreier_letters(phi)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_tuple_coset_reference(self, data):
        k = data.draw(st.integers(1, 5))
        moduli = tuple(data.draw(st.lists(
            st.sampled_from((2, 3, 5, 7, 11, 13)), min_size=1, max_size=2)))
        images = tuple(tuple(data.draw(st.integers(0, m - 1)) for m in moduli)
                       for _ in range(k))
        phi = AbelianHom(k, moduli, images)
        try:
            want = reference_schreier_letters(phi)
        except ValueError as err:  # not surjective
            with pytest.raises(ValueError) as raised:
                schreier_kernel(phi)
            assert str(raised.value) == str(err)
        else:
            assert [w.letters for w in schreier_kernel(phi)] == want


class TestExample1:
    def test_suite_passes(self):
        report = verify_example1()
        assert report["passed"], report
        assert len(report["checks"]) >= 8

    def test_swap_carries_c_to_d(self):
        data = example1_data()
        swap = [W("b"), W("a")]
        for c, d in zip(data["c_words"], data["d_words"]):
            assert map_letters(c, swap) == d

    def test_swap_of_a5_lands_in_kernel(self):
        data = example1_data()
        swap = [W("b"), W("a")]
        img = hom_image(data["theta"], map_letters(W("aaaaa"), swap))
        assert img == (0, 0)

    def test_gamma_members_listed(self):
        data = example1_data()
        graph = fold(schreier_kernel(data["theta"]))
        for w in data["gamma_members"]:
            assert membership(graph, w)
