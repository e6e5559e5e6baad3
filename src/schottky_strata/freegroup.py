"""Free-group words, abelian homomorphisms, Stallings foldings and
Schreier generators.

Words are stored reduced at all times as tuples of nonzero signed
generator indices (1 .. rank for generators, negatives for inverses).
Text syntax: lowercase letters a..z are generators, uppercase letters
their inverses, read left to right; e.g. ``bAB`` is B A^-1 B^-1.

Subgroups of free groups are represented by their folded core graphs
(deterministic automata over the signed alphabet), which decide
membership, index and rank.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from itertools import chain

from .strata import check, check_prime

__all__ = [
    "INFINITE",
    "FreeWord",
    "AbelianHom",
    "StallingsGraph",
    "parse_word",
    "map_letters",
    "hom_image",
    "fold",
    "membership",
    "index_and_rank",
    "schreier_kernel",
    "verify_example1",
    "example1_data",
]

INFINITE = math.inf


def _reduce_letters(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


class FreeWord(namedtuple("FreeWord", "rank letters")):
    """A freely reduced word in the free group of the given rank.
    Construction validates the letters and reduces them."""

    __slots__ = ()

    def __new__(cls, rank, letters):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        for x in letters:
            if not 1 <= abs(x) <= rank:
                raise ValueError(f"letter {x} outside rank {rank}")
        return tuple.__new__(cls, (rank, _reduce_letters(letters)))

    # _reduced((rank, letters)) skips validation: only for letters already
    # freely reduced and within rank
    _reduced = classmethod(tuple.__new__)

    def __invert__(self):
        return FreeWord(self.rank, tuple(-x for x in reversed(self.letters)))


def parse_word(text, rank):
    """Parse the a..z / A..Z syntax into a FreeWord."""
    letters = []
    for ch in text:
        if "a" <= ch <= "z":
            letters.append(ord(ch) - ord("a") + 1)
        elif "A" <= ch <= "Z":
            letters.append(-(ord(ch) - ord("A") + 1))
        else:
            raise ValueError(f"invalid character {ch!r} in word {text!r}")
    return FreeWord(rank, tuple(letters))


def map_letters(w, images):
    """Apply a letter substitution: generator i maps to images[i-1]."""
    if len(images) != w.rank:
        raise ValueError("need one image per generator")
    rank = images[0].rank
    out = []
    for x in w.letters:
        img = images[abs(x) - 1]
        out.extend(img.letters if x > 0 else (~img).letters)
    return FreeWord(rank, tuple(out))


class AbelianHom(namedtuple("AbelianHom", "rank moduli images")):
    """Homomorphism from a free group to Z_{m1} (x Z_{m2} ...) by exponent
    sums.  Construction validates."""

    __slots__ = ()

    def __new__(cls, rank, moduli, images):
        if len(images) != rank:
            raise ValueError("need one image vector per generator")
        for m in moduli:
            check_prime(m)
        for img in images:
            if len(img) != len(moduli):
                raise ValueError("image dimension does not match moduli")
        return tuple.__new__(cls, (rank, moduli, images))


def hom_image(phi, w):
    """Image of a word: signed sum of generator images mod the moduli."""
    if phi.rank != w.rank:
        raise ValueError("rank mismatch")
    sums = [0] * len(phi.moduli)
    for x in w.letters:
        sign = 1 if x > 0 else -1
        for i, v in enumerate(phi.images[abs(x) - 1]):
            sums[i] += sign * v
    return tuple(total % m for total, m in zip(sums, phi.moduli))


# Folded core graph of a finitely generated subgroup of a free group.
# Vertices are 0..n-1 with basepoint 0; adj[v] maps signed letters to target
# vertices (an x-edge from v to w stores both (v, x) -> w and (w, -x) -> v).
# ``fold`` numbers the vertices by breadth-first discovery from the
# basepoint, so equality is graph isomorphism respecting the basepoint and
# labels.
StallingsGraph = namedtuple("StallingsGraph", "rank adj")


def _letter_order(rank):
    # generator order a < b < ..., positive before negative
    return [x for g in range(1, rank + 1) for x in (g, -g)]


def fold(generators):
    """Folded core graph of the subgroup generated by the given words.

    Each word is read along the graph built so far, forward from the
    basepoint and then backward (inverse letters); only the unread middle
    becomes new vertices, and reads that meet merge their endpoints
    (Kapovich-Myasnikov 2002).  Reads call ``find`` only on a vertex a merge
    moved, so input that never merges (Schreier words) pays no union-find.
    Folding is confluent, so this is the folded bouquet of loops: a core
    graph, as a reduced word never has x then -x.  The breadth-first
    relabelling makes the result independent of order.  While folding, a
    vertex is a row of 2k+1 slots for rank k: letter x at slot x, a negative
    one counted from the end, so a read is one list index.  Only the
    relabelling builds the graph's dicts.
    """
    if not generators:
        raise ValueError("need at least one generator word")
    rank = generators[0].rank
    if {w.rank for w in generators} != {rank}:
        raise ValueError("all generators must share one ambient rank")
    slots = 2 * rank + 1
    parent = [0]
    adj = [[None] * slots]  # one row per vertex, vertex 0 is the basepoint

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    root = 0  # the basepoint's root, recomputed after each merge
    merged = False  # no merge, no edge to repoint
    for w in generators:
        letters = w.letters
        head, i = root, 0
        for x in letters:
            nxt = adj[head][x]
            if nxt is None:
                break
            head = nxt if parent[nxt] == nxt else find(nxt)
            i += 1
        tail, j = root, len(letters)
        while j > i:
            nxt = adj[tail][-letters[j - 1]]
            if nxt is None:
                break
            tail = nxt if parent[nxt] == nxt else find(nxt)
            j -= 1
        if i == j:
            if head != tail:
                _flush_folds(parent, adj, find, head, tail)
                root, merged = find(0), True
            continue
        while i < j - 1:  # the unread middle, without a slice of it
            x = letters[i]
            nxt = len(adj)
            parent.append(nxt)
            adj.append([None] * slots)
            adj[nxt][-x] = head
            adj[head][x] = nxt
            head, i = nxt, i + 1
        # the new path needs folding only if its first edge took the slot of
        # its last one (a middle x ... x^-1 at one vertex)
        x = letters[j - 1]
        taken = adj[tail][-x]
        if taken is None:
            adj[head][x] = tail
            adj[tail][-x] = head
        else:
            _flush_folds(parent, adj, find, taken, head)
            root, merged = find(0), True
    if merged:  # point every edge at its target's root
        adj = [[w if w is None else find(w) for w in row] for row in adj]
    live = sum(v == u for v, u in enumerate(parent))
    return _canonical_relabel(rank, adj, root, live)


def _flush_folds(parent, adj, find, u, v):
    # merge u and v, then every pair of targets the merge makes equal-labelled;
    # slot x's reverse is slot -x, for a letter and for a row index alike
    pending = deque([(u, v)])
    while pending:
        u, v = pending.popleft()
        u, v = find(u), find(v)
        if u == v:
            continue
        if adj[u].count(None) > adj[v].count(None):
            u, v = v, u
        parent[v] = u
        row = adj[u]
        for x, w in enumerate(adj[v]):
            if w is None:
                continue
            w = find(w)
            old = row[x]
            if old is None:
                row[x] = w
                # a reverse entry at w that named v leads to u through find
                back = adj[w][-x]
                if back is None:
                    adj[w][-x] = u
                elif find(back) != u:
                    pending.append((find(back), u))
            elif find(old) != w:
                pending.append((find(old), w))


def _canonical_relabel(rank, adj, root, size):
    # breadth-first from the basepoint's root, one map over each row, until
    # all ``size`` live vertices are labelled; every edge targets a root, so
    # vertices merged away by folding are never labelled
    order = _letter_order(rank)
    label = {root: 0}
    queue = [root]
    for v in queue:
        if len(queue) == size:
            break
        for w in map(adj[v].__getitem__, order):
            if w is not None and w not in label:
                label[w] = len(label)
                queue.append(w)
    signed = [*range(1, rank + 1), *range(-rank, 0)]  # slots 1 .. 2k
    new = [{x: label[w] for x, w in zip(signed, adj[v][1:]) if w is not None}
           for v in queue]
    return StallingsGraph(rank, new)


def membership(graph, w):
    """True iff the word traces a closed path at the basepoint."""
    v = 0
    for x in w.letters:
        v = graph.adj[v].get(x)
        if v is None:
            return False
    return v == 0


def index_and_rank(graph):
    """(index, rank) of the subgroup carried by a folded graph.

    Index is the vertex count when every vertex has all 2*rank edge slots
    filled, INFINITE otherwise.  Rank is E - V + 1, with E half the filled
    slots, as each edge fills one at both of its ends.
    """
    n = len(graph.adj)
    filled = sum(map(len, graph.adj))
    rank = filled // 2 - n + 1
    index = n if filled == 2 * graph.rank * n else INFINITE
    if index is not INFINITE:
        assert rank == 1 + index * (graph.rank - 1)
    return (index, rank)


def _coset_steps(phi):
    """step[x][c] = the coset c.x, for every signed letter x.

    Cosets are numbered in mixed radix over the moduli, the first modulus
    most significant, so coset 0 is the zero of the codomain.  Adding v
    rotates each block of m cosets by v: two ranges, copied in C.
    """
    steps = {}
    for x in _letter_order(phi.rank):
        table = [0]
        for m, v in zip(phi.moduli, phi.images[abs(x) - 1]):
            v = (v if x > 0 else -v) % m
            table = list(chain.from_iterable(
                chain(range(i * m + v, i * m + m), range(i * m, i * m + v))
                for i in table))
        steps[x] = table
    return steps


def schreier_kernel(phi):
    """Schreier generators of ker(phi) for a surjective AbelianHom.

    Cosets are the codomain elements; representatives form the
    shortlex-least transversal (generator order a < b < ..., positive
    letters before negative), found breadth-first until every coset has
    one.  For each representative u and positive generator x the word
    u x (rep of u.x)^-1 is emitted unless it reduces to the identity,
    giving 1 + n(k-1) words for index n and rank k.  The transversal is
    prefix-closed, so a word is trivial exactly when one of its joins
    cancels (x against the last letter of u or of the rep of u.x, read
    from a table), and reduced otherwise (Lyndon-Schupp I.3).  The
    representatives, their inverses and last letters are lists by coset.
    """
    k = phi.rank
    n = math.prod(phi.moduli)
    # every image vanishes mod a modulus: refused before n-entry tables
    if any(all(img[i] % m == 0 for img in phi.images)
           for i, m in enumerate(phi.moduli)):
        raise ValueError("homomorphism is not surjective onto its codomain")
    steps = _coset_steps(phi)
    reps, inverse_reps = [None] * n, [None] * n
    last = [0] * n  # the last letter of each representative, 0 for the empty one
    reps[0] = inverse_reps[0] = ()
    queue = [0]  # cosets in shortlex discovery order
    for c in queue:
        if len(queue) == n:
            break
        u = reps[c]
        for x, step in steps.items():  # letters a, A, b, B, ...
            d = step[c]
            if reps[d] is None:
                reps[d] = u + (x,)
                inverse_reps[d] = (-x,) + inverse_reps[c]
                last[d] = x
                queue.append(d)
    if len(queue) != n:
        raise ValueError("homomorphism is not surjective onto its codomain")

    word = FreeWord._reduced
    out = []
    letters = [(x, steps[x]) for x in range(1, k + 1)]
    for c in queue:
        u, cancel = reps[c], -last[c]
        for x, step in letters:
            d = step[c]
            if x != cancel and last[d] != x:  # no join cancels
                out.append(word((k, u + (x,) + inverse_reps[d])))
    return out


# ---------------------------------------------------------------------------
# Example-1 verification: the rank-26 kernel inside a rank-two group with
# two commuting order-5 quotients.

def example1_data():
    """Words and homomorphisms used by verify_example1."""
    rank = 2
    theta = AbelianHom(rank, (5, 5), ((1, 0), (0, 1)))
    # kernels of these two define the index-5 overgroups of ker(theta)
    to_second = AbelianHom(rank, (5,), ((0,), (1,)))
    to_first = AbelianHom(rank, (5,), ((1,), (0,)))
    c_words = [parse_word(w, rank) for w in
               ("a", "baB", "bbaBB", "bbbaBBB", "bbbbaBBBB", "bbbbb")]
    d_words = [parse_word(w, rank) for w in
               ("b", "abA", "aabAA", "aaabAAA", "aaaabAAAA", "aaaaa")]
    gamma_members = [parse_word(w, rank) for w in
                     ("aaaaa", "abbbbbA", "aabbbbbAA", "aaabbbbbAAA",
                      "aaaabbbbbAAAA")]
    return {
        "theta": theta,
        "k1_hom": to_second,
        "k2_hom": to_first,
        "c_words": c_words,
        "d_words": d_words,
        "gamma_members": gamma_members,
    }


def verify_example1():
    """Run the full worked-example suite; returns a report dict.

    Checks, each a ``strata.check`` record: (a) the rank-two kernel of
    the Z_5 x Z_5 quotient has index 25 and rank 26; (b) both intermediate
    subgroups have index 5 / rank 6 and are generated exactly by the
    listed words; (c) the swap a<->b maps every Schreier generator of the
    kernel back into the kernel; (d) the swap carries the first word list
    onto the second; (e) the five listed kernel members are members.
    """
    data = example1_data()
    theta = data["theta"]
    rank = theta.rank
    swap = [parse_word("b", rank), parse_word("a", rank)]

    gamma_gens = schreier_kernel(theta)
    gamma_graph = fold(gamma_gens)
    idx, rk = index_and_rank(gamma_graph)
    checks = [check("gamma_index_rank", (idx, rk) == (25, 26),
                    f"index={idx} rank={rk}")]

    for label, hom, words in (
        ("k1", data["k1_hom"], data["c_words"]),
        ("k2", data["k2_hom"], data["d_words"]),
    ):
        listed_graph = fold(words)
        idx, rk = index_and_rank(listed_graph)
        kernel_graph = fold(schreier_kernel(hom))
        checks += [
            check(f"{label}_index_rank", (idx, rk) == (5, 6),
                  f"index={idx} rank={rk}"),
            check(f"{label}_generates", listed_graph == kernel_graph,
                  "listed words fold to the subgroup graph"),
            check(f"{label}_members",
                  all(membership(kernel_graph, w) for w in words),
                  "all listed words are members"),
        ]

    zero = (0, 0)
    psi_gens = [map_letters(w, swap) for w in gamma_gens]
    swapped = [map_letters(w, swap) for w in data["c_words"]]
    members = data["gamma_members"]
    checks += [
        check("psi_preserves_gamma",
              all(hom_image(theta, w) == zero for w in psi_gens),
              "swap image of every Schreier generator lies in the kernel"),
        check("psi_c_equals_d",
              all(u == v for u, v in zip(swapped, data["d_words"])),
              "swap carries each C-word to the matching D-word"),
        check("gamma_listed_members",
              all(hom_image(theta, w) == zero and membership(gamma_graph, w)
                  for w in members),
              "five listed members verified by image and by graph"),
    ]

    return {"passed": all(c["pass"] for c in checks), "checks": checks}
