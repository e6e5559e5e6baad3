"""Double-precision Moebius transformations and matrix realisations of
cyclic-Schottky structural data.

Maps are unit-determinant 2x2 complex matrices [[a, b], [c, d]] up to
sign, each held as the tuple (a, b, c, d) of its complex entries; every
test against the identity compares with both +I and -I.  Every factor is
built unit-determinant from one closed form, so no matrix is
renormalised.  Classification and order are trace tests within the one
fixed tolerance ``_EPS``; commutation is a test relative to the pair's own
entries, ``commute``, the same at every scale.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from operator import itemgetter

from .cyclic_schottky import build_spec, symbols
from .strata import within_budget

__all__ = [
    "MatrixGroupSpec",
    "classify",
    "commute",
    "order_check",
    "build_matrix_group",
    "matrix_group_defects",
    "purely_loxodromic_sample",
]


def _mul(m, n):
    """The product m n of two maps."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _powers(m, top, bottom=0):
    """m^k for -bottom <= k <= top at index k, k < 0 from the end (the
    adjugate's): m^k = m^(k - 2^j) m^(2^j), 2^j the top bit of k, one product
    each, the very floats of square-and-multiply, lowest bit first."""
    a, b, c, d = m
    halves = []
    for base, last in ((m, top), ((d, -b, -c, a), bottom)):
        half, square, bit = [(1 + 0j, 0j, 0j, 1 + 0j)], base, 1
        for k in range(1, last + 1):
            if k == 2 * bit:
                square, bit = _mul(square, square), k
            half.append(_mul(half[k - bit], square))
        halves.append(half)
    return halves[0] + halves[1][:0:-1]


def _dist_to_unit(a, b2, c2, d):
    """min(||M - I||, ||M + I||) in the Frobenius norm (PSL sign folded),
    from a, |b|^2, |c|^2 and d."""
    # the squares are added left to right (_classes relies on the order)
    plus = math.sqrt(abs(a - 1) ** 2 + b2 + c2 + abs(d - 1) ** 2)
    minus = math.sqrt(abs(a + 1) ** 2 + b2 + c2 + abs(d + 1) ** 2)
    return min(plus, minus)


# the tolerance of every trace test, read at call time
_EPS = 1e-9


def classify(m):
    """The class name of map m by its trace, identity and parabolic first.

    "identity" within eps = _EPS of +-I; "parabolic" when tr^2 is within
    eps of 4; "elliptic" when tr^2 is real within eps and lies in
    [0, 4-eps]; "loxodromic" otherwise.  It is the one-map case of
    ``_classes``, which holds the rule.
    """
    return _classes([m])[0]


def _classes(maps):
    """The names of ``classify``'s classes of the maps [[a, b], [c, d]] of
    ``maps``, in order, each by its trace first; the tolerance and the
    margin are read once.

    With x + iy the computed tr^2 and the margin M = (8 eps + 4 eps^2)
    (1 + 2^-20) + 2^-40, "loxodromic" is returned at once when x - 4 > M,
    |y| > M, or x < -eps and 4 - x > M, and |b|, |c| < 1e150, so that
    their squares cannot overflow.  Each puts tr^2 outside the elliptic
    band and, as M > eps and the computed |tr^2 - 4| is at least |x - 4|
    and |y|, outside the parabolic one.  No matrix that the full rule
    calls "identity" passes.  Take +I (for -I swap tr - 2 and tr + 2): the
    computed distance bounds each computed term of its sum, as rounding
    is monotone, so |a - 1| and |d - 1| are at most eps' = eps (1 + 6u),
    u = 2^-53 (the sqrt, the square, hypot within an ulp, a - 1).  Then
    |tr - 2| <= 2 eps' and |tr + 2| <= 4 + 2 eps', so |tr^2 - 4| <=
    2 eps' (4 + 2 eps') <= (8 eps + 4 eps^2)(1 + 12u).  The computed tr
    errs by u |tr|, its square by 3u |tr|^2 more, x - 4 by u of itself:
    under 30u (1 + eps)^2 + 20u (8 eps + 4 eps^2) in all, which 2^-40
    covers for eps <= 1 and 2^-20 (8 eps + 4 eps^2) for eps > 1.

    Every other matrix takes the full rule, identity, parabolic, elliptic,
    then loxodromic, as above.  Its identity test first compares
    sqrt(|b|^2 + |c|^2) with eps, which decides it exactly when that
    exceeds eps: each left-to-right partial sum in ``_dist_to_unit`` is at
    least fl(|b|^2 + |c|^2), so both distances to +-I exceed eps too (NaN
    fails both).  OverflowError is raised exactly when |b|^2, |c|^2 or,
    off +-I, tr^2 overflows: the shortcut takes none of those.
    """
    eps = _EPS
    margin = (8 + 2**-17 + (4 + 2**-18) * eps) * eps + 2**-40  # M, folded
    names = []
    for a, b, c, d in maps:
        try:
            tr2 = (a + d) ** 2
        except OverflowError:  # the full rule raises it, after |b|^2, |c|^2
            tr2 = None
        else:
            x = tr2.real
            if ((x - 4 > margin or abs(tr2.imag) > margin
                 or x < -eps and 4 - x > margin)
                    and abs(b) < 1e150 and abs(c) < 1e150):
                names.append("loxodromic")
                continue
        b2, c2 = abs(b) ** 2, abs(c) ** 2
        if math.sqrt(b2 + c2) <= eps and _dist_to_unit(a, b2, c2, d) <= eps:
            names.append("identity")
            continue
        if tr2 is None:
            tr2 = (a + d) ** 2
        if abs(tr2 - 4) <= eps:
            names.append("parabolic")
        elif abs(tr2.imag) <= eps and -eps <= tr2.real <= 4 - eps:
            names.append("elliptic")
        else:
            names.append("loxodromic")
    return names


def order_check(m, p):
    """True iff the unit-determinant M satisfies M^p = +-I with M != +-I.

    That holds exactly when tr M = 2 cos(k pi / p) for some 0 < k < p, so
    the nearest such k is read from the trace and the trace is compared
    with 2 cos(k pi / p) within _EPS; no power of M is taken.
    """
    tr = m[0] + m[3]
    k = round(p * math.acos(min(1.0, max(-1.0, tr.real / 2))) / math.pi)
    return (0 < k < p and abs(tr.imag) <= _EPS
            and abs(tr.real - 2 * math.cos(k * math.pi / p)) <= _EPS)


_PARALLEL_TOL = 2.0**-49  # 16 unit roundoffs u = 2**-53


def commute(m1, m2):
    """True iff the traceless parts (a - d, b, c) of m1 and m2 are parallel:
    for determinant 1 and not +-I, m1 m2 = m2 m1 (m1 m2 = -m2 m1 needs two
    traces 0, which no loxodromic map has).  Each minor x1 y2 - y1 x2 is
    at most _PARALLEL_TOL times its terms |x1| |y2| + |y1| |x2|, with
    |a| + |d| for |a - d|, which cancels; a NaN fails.  Why 16u: a pair
    ``_factor`` builds is ch I + sh N and ch' I + sh' N for one float N, so
    it commutes exactly; fl(a - d) errs by 5u (|a| + |d|), b and c by u, so
    a product errs by (6 + sqrt 5) u of its term, the subtraction u: 9.3u.
    """
    s, t = [((a - d, abs(a) + abs(d)), (b, abs(b)), (c, abs(c)))
            for a, b, c, d in (m1, m2)]
    return all(abs(s[i][0] * t[j][0] - s[j][0] * t[i][0])
               <= _PARALLEL_TOL * (s[i][1] * t[j][1] + s[j][1] * t[i][1])
               for i, j in ((0, 1), (0, 2), (1, 2)))


# ---------------------------------------------------------------------------
# concrete matrix groups

_OFFSET = 0.1
_MULTIPLIER = 9.0


def _factor(center, half, ch, sh):
    """ch I + sh N, where N = [[k, -(center^2 - half^2)/half], [1/half, -k]]
    with k = center/half fixes center -+ half and N^2 = I; with
    ch^2 - sh^2 = 1 the determinant is 1 by construction.

    Each entry is written in closed form from (center, half) rather than
    from the fixed points or as a matrix product, which keeps it within a
    couple of ulps at distant centers.
    """
    k = center / half
    # -sh, not the negated product: a rotation's zero real part stays +0.0;
    # complex entries, as a float one would change the products' signed
    # zeros and NaNs
    return tuple(map(complex, (
        ch + sh * k, -sh * ((center * center - half * half) / half),
        sh / half, ch - sh * k)))


# concrete matrices for a roster's tuple ``spec``: ``matrices`` and
# ``centers`` map each roster symbol to its map (a, b, c, d) and its center
MatrixGroupSpec = namedtuple("MatrixGroupSpec", "spec matrices centers")


def build_matrix_group(tup, separation=10.0):
    """Place the free factors at well-separated centers on the real axis.

    Elliptic factors take the centers nearest the origin, then the
    commuting pairs, then the loxodromic factors (the torsion checks have
    the tightest tolerances and their double-precision accuracy decays
    with the center magnitude).  Every factor is a ``_factor``: elliptic
    generators rotate by 2 pi / p about center -+ _OFFSET*i; loxodromic
    generators, of multiplier _MULTIPLIER, have real fixed points
    center -+ _OFFSET; each pair shares one real fixed-point set, so it
    commutes to rounding.  ``matrix_group_defects`` checks the algebraic
    and classification invariants; nothing here certifies discreteness.
    """
    if not (math.isfinite(separation) and separation > 0):
        raise ValueError(
            f"separation must be finite and positive, got {separation}")
    spec = build_spec(tup)
    u = math.sqrt(_MULTIPLIER)
    lox = ((u + 1 / u) / 2, (u - 1 / u) / 2)
    rot = (math.cos(math.pi / tup.p), 1j * math.sin(math.pi / tup.p))
    matrices = {}
    centers = {}

    def place(sym, center, half, ch_sh):
        m = _factor(center, half, *ch_sh)
        if not all(map(cmath.isfinite, (center, *m))):
            raise ValueError(f"separation {separation} places {sym[0]}"
                             f"{sym[1]} beyond double precision")
        matrices[sym] = m
        centers[sym] = complex(center, 0)

    slot = 0
    for j in range(1, tup.r + 1):
        place(("e", j), slot * separation, 1j * _OFFSET, rot)
        slot += 1
    for k in range(1, tup.s + 1):
        place(("t", k), slot * separation, _OFFSET, lox)
        place(("f", k), slot * separation, _OFFSET, rot)
        slot += 1
    for j in range(1, tup.t + 1):
        place(("a", j), slot * separation, _OFFSET, lox)
        slot += 1
    return MatrixGroupSpec(spec, matrices, centers)


def matrix_group_defects(mg):
    """Messages naming each built matrix that breaks its invariant; empty
    when every loxodromic factor classifies as loxodromic, every elliptic
    factor is elliptic with the trace of order p and every pair commutes.

    Classification and order are trace tests within _EPS, and commutation
    is ``commute``, a test relative to the pair's own entries; all three
    mean the same at every center.
    """
    p = mg.spec.p
    defects = []
    for sym, m in mg.matrices.items():
        cls = classify(m)
        if sym[0] in ("a", "t"):
            if cls != "loxodromic":
                defects.append(f"{sym[0]}{sym[1]} is {cls}, not loxodromic")
            continue
        if not order_check(m, p):
            defects.append(f"{sym[0]}{sym[1]} does not have order {p}")
        if cls != "elliptic":
            defects.append(f"{sym[0]}{sym[1]} is {cls}, not elliptic")
    for k in range(1, mg.spec.s + 1):
        if not commute(mg.matrices[("t", k)], mg.matrices[("f", k)]):
            defects.append(f"pair {k} fails to commute")
    return defects


# ---------------------------------------------------------------------------
# the sample: short kernel words, their products and their classes

def _syllable_alphabet(spec):
    """The syllables of the sample, in roster order: loxodromic symbols
    carry exponent +-1 only and elliptic ones the full range 1..p-1, so
    the sample is complete up to that loxodromic exponent bound."""
    return [(sym, c) for sym in symbols(spec)
            for c in (range(1, spec.p) if sym[0] in "ef" else (-1, 1))]


def _may_follow(prev_sym, sym):
    """Whether sym may follow prev_sym (None at the start of a word): not
    the same symbol, which would merge into one syllable, nor T_k after
    F_k, as normal form writes T_k first."""
    return prev_sym != sym and not (sym[0] == "t"
                                    and prev_sym == ("f", sym[1]))


def _walk_budget(spec, max_syllables, budget):
    """Refuse the sample of ``spec`` if its candidate words, the last
    level's too, pass ``budget``, naming those through the level that
    crossed it.  The count reads only the width w(s) of each symbol, its
    number of syllables: 2 when loxodromic, p - 1 when elliptic.  With N
    nodes at a level, ends[s] of them ending in s, and A the sum of the
    widths, every node may take any syllable but those of its last symbol,
    and F_k may not take T_k; so the next level has
    N A - sum of ends[s] (w(s) + 2 [s is F_k]) nodes,
    w(s) (N - ends[s] - [s is T_k] ends[F_k]) of them ending in s."""
    if max_syllables < 1:
        raise ValueError("max_syllables must be >= 1")
    width = {sym: spec.p - 1 if sym[0] in "ef" else 2
             for sym in symbols(spec)}
    size = sum(width.values())
    seen, nodes, ends = 0, 1, {}  # the root ends in no symbol
    for level in range(1, max_syllables + 1):
        seen += nodes * size - sum(
            n * (width[sym] + 2 * (sym[0] == "f")) for sym, n in ends.items())
        within_budget(seen, budget, "sampled words")
        if level < max_syllables:
            ends = {sym: w * (nodes - ends.get(sym, 0)
                              - (sym[0] == "t") * ends.get(("f", sym[1]), 0))
                    for sym, w in width.items()}
            nodes = sum(ends.values())


def purely_loxodromic_sample(mg, phi, max_syllables=4, budget=10**6):
    """Classify every short kernel word; pass iff every product is
    loxodromic.

    The words are the nonidentity kernel words over ``_syllable_alphabet``
    of at most ``max_syllables`` syllables, by syllable count and then
    lexicographically in the alphabet's order.  Violations (identity,
    elliptic or parabolic evaluations) are reported with the offending
    word and its trace: no nontrivial word of a Schottky group is +-I, so
    an identity word fails as an elliptic one does.  They indicate
    insufficient separation rather than a hard error.  An overflowing
    product raises OverflowError.

    The words grow as a trie of nodes (last symbol, image sum mod p, a, b,
    c, d, text): each level extends its parents' map, the left-to-right
    product of the syllable powers, and text, one product per node, and
    keeps the nodes of sum 0.  The last level is not scanned but looked up,
    as the syllables that close each sum.  Each factor's powers are one
    ``_powers`` table, each syllable's text is written once, and one
    ``_classes`` call classifies the words.  ``_walk_budget`` counts first,
    so a refused run takes no power and classifies no word.
    """
    spec = phi.spec
    p = spec.p
    _walk_budget(spec, max_syllables, budget)
    powers = {sym: _powers(mg.matrices[sym], p - 1) if sym[0] in "ef"
              else _powers(mg.matrices[sym], 1, 1) for sym in symbols(spec)}
    alphabet = [(sym, exp * phi.image(sym) % p, *powers[sym][exp], text,
                 " " + text)
                for sym, exp in _syllable_alphabet(spec)
                for text in [f"{sym[0]}{sym[1]}" + f"^{exp}" * (exp != 1)]]
    del powers  # the tables' tuples are not held while the trie grows
    # the alphabet entries that may follow each last symbol a level ends
    # in, and those of them that close each image sum, keyed by the sums
    # that occur: the root ends in None, and level 1 in every symbol
    lasts = [None] if max_syllables == 1 else [None, *symbols(spec)]
    follow = {prev: [e for e in alphabet if _may_follow(prev, e[0])]
              for prev in lasts}
    closing = {prev: {} for prev in follow}
    for prev, entries in follow.items():
        for entry in entries:
            closing[prev].setdefault(-entry[1] % p, []).append(entry)
    nodes = [(None, 0, 1 + 0j, 0j, 0j, 1 + 0j, "")]
    words = []
    for after in reversed(range(max_syllables)):  # the levels after this one
        # _mul's products and str(w) of each word (a test pins both)
        nodes = [(sym, (total + step) % p, a * fa + b * fc, a * fb + b * fd,
                  c * fa + d * fc, c * fb + d * fd,
                  text + spaced if text else word)
                 for prev, total, a, b, c, d, text in nodes
                 for sym, step, fa, fb, fc, fd, word, spaced in (
                     follow[prev] if after else closing[prev].get(total, ()))]
        words += [node for node in nodes if not node[1]] if after else nodes
    traces = [node[2] + node[5] for node in words]
    maps = list(map(itemgetter(2, 3, 4, 5), words))
    if not all(map(cmath.isfinite, traces)):
        # _classes raises for a finite overflow, first in an earlier word
        bad = next(i for i, tr in enumerate(traces) if not cmath.isfinite(tr))
        _classes(maps[:bad])
        raise OverflowError(f"{words[bad][6]} has trace {traces[bad]}")
    classes = _classes(maps)
    entries = [{"word": node[6], "class": cls, "trace": [tr.real, tr.imag]}
               for node, cls, tr in zip(words, classes, traces)]
    violations = [entry for entry, cls in zip(entries, classes)
                  if cls != "loxodromic"]
    return {
        "passed": not violations,
        "n_words": len(words),
        "n_loxodromic": len(words) - len(violations),
        "violations": violations,
        "words": entries,
    }
