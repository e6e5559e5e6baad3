"""Independent checkers for the benchmark's outputs.

Nothing here imports the package under test.  Each function computes the
expected value by a route of its own (a closed form, a count by dynamic
programming, or a second algorithm), so a wrong program output cannot agree
with it by sharing code.  ``test_checkers.py`` tests each one against brute
force on small cases.
"""

from __future__ import annotations

import math
import re

PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

# The paper prints its lists as (t, s, r); keys are (g, p).
PUBLISHED_TSR = {
    (5, 5): [(0, 1, 1), (1, 0, 1)],
    (10, 5): [(0, 2, 1), (1, 1, 1), (2, 0, 1)],
    (10, 11): [(0, 0, 2)],
    (100, 11): [(0, 0, 11), (0, 10, 0), (1, 9, 0), (2, 8, 0), (3, 7, 0),
                (4, 6, 0), (5, 5, 0), (6, 4, 0), (7, 3, 0), (8, 2, 0),
                (9, 1, 0), (10, 0, 0)],
    (157, 13): [(0, 1, 13), (0, 13, 0), (1, 0, 13), (1, 12, 0), (2, 11, 0),
                (3, 10, 0), (4, 9, 0), (5, 8, 0), (6, 7, 0), (7, 6, 0),
                (8, 5, 0), (9, 4, 0), (10, 3, 0), (11, 2, 0), (12, 1, 0),
                (13, 0, 0)],
}


def published_trs(g, p):
    """The paper's list for (g, p), reindexed from (t, s, r) to (t, r, s)."""
    return sorted((t, r, s) for t, s, r in PUBLISHED_TSR[(g, p)])


# ---------------------------------------------------------------------------
# strata


def stratum_count(p, g):
    """N(p, g) = sum of (n + 1) over 0 <= n <= floor((g+p-1)/p) with
    n = g (mod p-1), summed as an arithmetic series in O(1).

    n is t + s: the relation g - 1 = p(n - 1) + r(p - 1) has a solution
    r >= 0 exactly for those n, and each n admits n + 1 splits (t, s).
    """
    top = (g + p - 1) // p
    step = p - 1
    first = g % step
    if first > top:
        return 0
    k = (top - first) // step + 1
    return k * (first + 1) + step * k * (k - 1) // 2


def stratum_triples(g, p):
    """All (t, r, s) with g = p(t + r + s - 1) + 1 - r, sorted.

    Solved over r rather than over t + s: p must divide g - 1 + r, and then
    t + s = (g - 1 + r)/p + 1 - r, which falls as r grows.
    """
    out = []
    r = 0
    while True:
        n = (g - 1 + r) // p + 1 - r
        if n < 0:
            break
        if (g - 1 + r) % p == 0:
            out.extend((t, r, n - t) for t in range(n + 1))
        r += 1
    out.sort()
    return out


def m_binomial(p, r, s):
    """Component count M: 1 for p = 2, else C(r+h, h) C(s+h, h), h = (p-3)/2."""
    if p == 2:
        return 1
    h = (p - 3) // 2
    return math.comb(r + h, h) * math.comb(s + h, h)


def stratum_dimension(g, p, r):
    num = 3 * g - 3 - r * (p - 3)
    if num % p:
        raise ValueError(f"dimension of (g={g}, p={p}, r={r}) is not an integer")
    return num // p


def check_report_row(row):
    """Property checks on one report row ({g,p,t,r,s,m_count,dimension,
    upper,exact}); returns an error string or None."""
    g, p, t, r, s = row["g"], row["p"], row["t"], row["r"], row["s"]
    if g != p * (t + r + s - 1) + 1 - r:
        return f"row {row} violates the defining relation"
    m = m_binomial(p, r, s)
    if row["m_count"] != m:
        return f"row {row}: m_count {row['m_count']} != binomial product {m}"
    if row["dimension"] != stratum_dimension(g, p, r):
        return f"row {row}: dimension disagrees with (3g-3-r(p-3))/p"
    if row["upper"] != m:
        return f"row {row}: upper bound is not M"
    exact = row["exact"]
    if exact is not None and not 1 <= exact <= m:
        return f"row {row}: exact count outside [1, M]"
    return None


# ---------------------------------------------------------------------------
# orbit counts (Burnside's lemma over cyclic groups)


def totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def plain_orbit_count(p, r, s):
    """Multisets of +-classes: C(r+h-1, r) C(s+h-1, s), h = (p-1)/2."""
    h = (p - 1) // 2
    return math.comb(r + h - 1, r) * math.comb(s + h - 1, s)


def scaled_orbit_count(p, r, s):
    """Orbits of the plain classes under the cyclic group of unit scalings
    modulo +-1 (order h = (p-1)/2), by Burnside's lemma:

        (1/h) sum_{d | gcd(h, r, s)} phi(d) C(r/d + h/d - 1, r/d) C(s/d + h/d - 1, s/d).
    """
    h = (p - 1) // 2
    total = 0
    for d in range(1, h + 1):
        if h % d == 0 and r % d == 0 and s % d == 0:
            total += (totient(d) * math.comb(r // d + h // d - 1, r // d)
                      * math.comb(s // d + h // d - 1, s // d))
    if total % h:
        raise AssertionError("Burnside sum is not divisible by the group order")
    return total // h


def rotation_orbit_count(p, m):
    """Orbits of (Z_p^*)^m under rescaling and permutation:

        (1/(p-1)) sum_{d | gcd(p-1, m)} phi(d) C(m/d + (p-1)/d - 1, m/d).
    """
    q = p - 1
    total = 0
    for d in range(1, q + 1):
        if q % d == 0 and m % d == 0:
            total += totient(d) * math.comb(m // d + q // d - 1, m // d)
    if total % q:
        raise AssertionError("Burnside sum is not divisible by the group order")
    return total // q


def bfs_orbit_expected(p, t, r, s, scaled):
    """Orbit count of the BFS oracle's move set: one orbit when r = s = 0
    (Nielsen moves connect every surjective free-block image), otherwise
    the multiset count of the torsion images, plain or scaled."""
    if r == 0 and s == 0:
        return 1
    return scaled_orbit_count(p, r, s) if scaled else plain_orbit_count(p, r, s)


def bfs_state_count(p, t, r, s):
    states = p ** t * (p - 1) ** r * p ** s * (p - 1) ** s
    return states - 1 if r == 0 and s == 0 else states


# ---------------------------------------------------------------------------
# free groups and kernels


def nielsen_schreier_rank(index, rank):
    return 1 + index * (rank - 1)


def free_image_sum(letters, images, p):
    """Signed image sum of a free-group word (letters +-1..+-k) mod p."""
    return sum(images[abs(x) - 1] * (1 if x > 0 else -1) for x in letters) % p


_SYLLABLE = re.compile(r"([aetf])([1-9][0-9]*)(?:\^(-?[1-9][0-9]*))?$")


def parse_syllables(text):
    """Parse ``a1 e2^3 t1^-1`` into [(kind, index, exponent), ...]."""
    out = []
    for token in text.split():
        m = _SYLLABLE.match(token)
        if not m:
            raise ValueError(f"bad syllable {token!r}")
        out.append((m.group(1), int(m.group(2)),
                    int(m.group(3)) if m.group(3) else 1))
    return out


def structural_image_sum(syllables, images, p):
    """Image of a structural-group word under the hom given as
    {"a": [...], "e": [...], "t": [...], "f": [...]} (t is the tau block)."""
    return sum(exp * images[kind][idx - 1] for kind, idx, exp in syllables) % p


def is_normal_form(syllables, p):
    """Syllable normal form: no two adjacent syllables on one symbol,
    elliptic exponents in 1..p-1, loxodromic ones nonzero, and no F_k
    directly before T_k."""
    prev = None
    for kind, idx, exp in syllables:
        if kind in "ef":
            if not 1 <= exp <= p - 1:
                return False
        elif exp == 0:
            return False
        if prev == (kind, idx):
            return False
        if kind == "t" and prev == ("f", idx):
            return False
        prev = (kind, idx)
    return True


def kernel_word_count(t, r, s, images, p, max_syllables):
    """Number of nonempty normal-form words of at most ``max_syllables``
    syllables with loxodromic exponents +-1 and zero image sum.

    Dynamic programming over (last symbol, image sum): a state counts the
    words ending in that symbol with that sum, and a syllable on symbol x
    may follow any symbol but x itself and, for x = T_k, F_k.
    """
    symbols = ([("a", j) for j in range(1, t + 1)]
               + [("e", j) for j in range(1, r + 1)]
               + [sym for k in range(1, s + 1) for sym in (("t", k), ("f", k))])
    steps = {}
    for sym in symbols:
        v = images[sym[0]][sym[1] - 1]
        exps = range(1, p) if sym[0] in "ef" else (-1, 1)
        shift = [0] * p
        for e in exps:
            shift[e * v % p] += 1
        steps[sym] = shift
    # level[sym][c]: words of the current length ending in sym with sum c
    total = 0
    level = None
    for _ in range(max_syllables):
        nxt = {}
        sums = {None: [1] + [0] * (p - 1)} if level is None else level
        all_sum = [0] * p
        for vec in sums.values():
            for c in range(p):
                all_sum[c] += vec[c]
        for sym in symbols:
            base = list(all_sum)
            if level is not None:
                for c in range(p):
                    base[c] -= level[sym][c]
                if sym[0] == "t":
                    blocked = level[("f", sym[1])]
                    for c in range(p):
                        base[c] -= blocked[c]
            shift = steps[sym]
            vec = [0] * p
            for c in range(p):
                if base[c]:
                    for d in range(p):
                        if shift[d]:
                            vec[(c + d) % p] += base[c] * shift[d]
            nxt[sym] = vec
        level = nxt
        total += sum(vec[0] for vec in level.values())
    return total


def trace_is_loxodromic(re_tr, im_tr, eps):
    """Loxodromic iff tr^2 is neither within eps of 4 nor real in [0, 4]."""
    tr2 = complex(re_tr, im_tr) ** 2
    if abs(tr2 - 4) <= eps:
        return False
    return not (abs(tr2.imag) <= eps and -eps <= tr2.real <= 4 - eps)


def coset_index(p, t, r, s, words):
    """Index in the structural group of the subgroup the words generate,
    by sympy's coset enumeration.  Index p for words in an index-p kernel
    shows that they generate the kernel.  ``words`` are syllable lists."""
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    symbols = ([("a", j) for j in range(1, t + 1)]
               + [("e", j) for j in range(1, r + 1)]
               + [sym for k in range(1, s + 1) for sym in (("t", k), ("f", k))])
    free, *gens = free_group(",".join(f"{k}{i}" for k, i in symbols))
    gen = dict(zip(symbols, gens))
    relators = [gen[("e", j)] ** p for j in range(1, r + 1)]
    for k in range(1, s + 1):
        tk, fk = gen[("t", k)], gen[("f", k)]
        relators += [fk ** p, tk * fk * tk ** -1 * fk ** -1]
    group = FpGroup(free, relators)
    subgroup = []
    for syllables in words:
        w = free.identity
        for kind, idx, exp in syllables:
            w = w * gen[(kind, idx)] ** exp
        subgroup.append(w)
    table = group.coset_enumeration(subgroup)
    table.compress()
    return len(table.table)
