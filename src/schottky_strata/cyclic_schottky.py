"""Structural model of a cyclic-Schottky group and its index-p kernels.

A group of type (g, p; t, r, s) is the free product of t infinite cyclic
groups <A_j>, r cyclic groups <E_j> of order p, and s rank-two abelian
groups <T_k, F_k | F_k^p, [T_k, F_k]>.  Every word is written in syllable
normal form as it is made: freely reduced, elliptic exponents in 1..p-1,
and within a commuting pair the T-syllable written before the F-syllable.

Kernels of homomorphisms onto Z_p are handled two ways: a membership
test (image sum) and a free basis of size g: the Schreier generators over
the transversal xi^0..xi^{p-1} that the rewritten relators leave, written
down in closed form and in normal form.

Words print as whitespace-separated syllables ``a1``, ``e2^3``, ``t1^-1``
(kind letter + index, optional ^exponent).
"""

from __future__ import annotations

from collections import namedtuple

from .homorbits import HomImage
from .strata import AdmissibleTuple

__all__ = [
    "FPWord",
    "KHom",
    "build_spec",
    "fpword_str",
    "kernel_membership",
    "kernel_presentation",
    "normalized_homs",
    "symbols",
]


def symbols(tup):
    """Roster of the admissible tuple in canonical order: A_j, E_j, then
    T_k, F_k per pair.  A symbol is (kind, index) with kind in "aetf" and
    index 1-based; the kinds "e" and "f" are elliptic."""
    out = [("a", j) for j in range(1, tup.t + 1)]
    out += [("e", j) for j in range(1, tup.r + 1)]
    for k in range(1, tup.s + 1):
        out += [("t", k), ("f", k)]
    return out


def build_spec(tup):
    """``tup``, the roster's tuple, once it is an AdmissibleTuple (the tuple
    constructor validates)."""
    if not isinstance(tup, AdmissibleTuple):
        raise ValueError("build_spec expects an AdmissibleTuple")
    return tup


class FPWord(namedtuple("FPWord", "syllables")):
    """Word in syllable normal form: tuple of (symbol, exponent) pairs."""

    __slots__ = ()

    def __str__(self):
        return fpword_str(self)


def fpword_str(w):
    return " ".join(map(_syllable_str, w.syllables))


def _syllable_str(syllable):
    (kind, idx), exp = syllable
    return f"{kind}{idx}" if exp == 1 else f"{kind}{idx}^{exp}"


class KHom(namedtuple("KHom", "spec hom images")):
    """A HomImage bound to a roster's tuple ``spec``: ``images`` maps each
    roster symbol to its image.  Construction validates and fills it."""

    __slots__ = ()

    def __new__(cls, spec, hom):
        if hom.p != spec.p:
            raise ValueError("modulus mismatch between spec and images")
        if (len(hom.a), len(hom.e), len(hom.tau), len(hom.f)) != (
                spec.t, spec.r, spec.s, spec.s):
            raise ValueError("image vector lengths do not match the roster")
        blocks = {"a": hom.a, "e": hom.e, "t": hom.tau, "f": hom.f}
        images = {sym: blocks[sym[0]][sym[1] - 1] for sym in symbols(spec)}
        return tuple.__new__(cls, (spec, hom, images))

    def image(self, sym):
        """The image of the roster symbol ``sym``; ValueError for any other."""
        try:
            return self.images[sym]
        except KeyError:
            raise ValueError(f"{sym!r} is not a symbol of the roster of "
                             f"{self.spec}") from None


def kernel_membership(phi, w):
    """True iff the signed image sum of the word vanishes mod p."""
    p = phi.spec.p
    total = 0
    for sym, exp in w.syllables:
        total += exp * phi.image(sym)
    return total % p == 0


def normalized_homs(spec):
    """Exhaustive normalized image vectors on a spec.

    The normal form fixes a = 0 and tau = 0 (reachable by the torsion-shift
    moves) and sweeps all unit vectors e, f, lexicographically in e then f;
    when r = s = 0 the single representative a = (1, 0, ..., 0) remains
    after rescaling.  The units are counted up one vector at a time, never
    held, so the first hom costs nothing that grows with p.
    """
    p = spec.p
    if spec.r == 0 and spec.s == 0:
        yield KHom(spec, HomImage(p, a=(1,) + (0,) * (spec.t - 1)))
        return
    units = [1] * (spec.r + spec.s)
    while True:
        yield KHom(spec, HomImage(p, a=(0,) * spec.t, e=tuple(units[:spec.r]),
                                  tau=(0,) * spec.s, f=tuple(units[spec.r:])))
        # the next vector: the trailing p - 1 entries wrap to 1
        j = len(units) - 1
        while j >= 0 and units[j] == p - 1:
            units[j] = 1
            j -= 1
        if j < 0:
            return
        units[j] += 1


# ---------------------------------------------------------------------------
# Reidemeister-Schreier over the transversal xi^0 .. xi^{p-1}

def _transversal_pivot(phi):
    """Pick the symbol whose powers form the transversal.

    Preference: E_1, else F_1, else the first A_j with nonzero image.  The
    images are rescaled so the pivot maps to 1; rescaling does not change
    the kernel.
    """
    spec = phi.spec
    if spec.r > 0:
        return ("e", 1)
    if spec.s > 0:
        return ("f", 1)
    for j in range(1, spec.t + 1):
        if phi.image(("a", j)) != 0:
            return ("a", j)
    raise ValueError("homomorphism is not surjective: no usable pivot")


def kernel_presentation(phi):
    """Free basis of the kernel, of size g, in closed form.

    Reidemeister-Schreier over the transversal xi^0..xi^{p-1} (xi the
    pivot, images c rescaled so that c(xi) = 1) gives the generators
    x_{i,s} = xi^i s xi^-((i + c(s)) mod p).  The relators rewritten over
    them remove all but these, listed in roster order, cosets ascending:

    - a non-pivot A_j: x_{i,A_j} for every i (no relator involves A_j);
    - a non-pivot E_j or F_k: x_{i,s} for i = 1..p-1 (the rewrite of s^p
      passes through every coset once and removes x_{0,s});
    - T_k: x_{0,T_k} when F_k is the pivot, else x_{p-1,T_k} (the p
      rewrites of [T_k, F_k] remove the other p-1);
    - a loxodromic pivot: x_{p-1,xi} = xi^p.  An elliptic pivot keeps
      nothing: its relator xi^p rewrites to x_{p-1,xi} alone.

    The x_{i,xi} with i < p-1 are transversal edges and trivial.  Each
    word is written in normal form: a zero power of xi is dropped, and
    xi^-j is xi^(p-j) for an elliptic pivot.  No two syllables merge, as
    s is not xi, and no F_k comes before T_k, as T_k keeps coset 0 when
    F_k is the pivot.  The size and the zero image of every word are not
    asserted here; the ``kernel`` command checks both.
    """
    spec = phi.spec
    p = spec.p
    xi = _transversal_pivot(phi)
    lam = pow(phi.image(xi), -1, p)
    elliptic = xi[0] in "ef"
    # xi^i and xi^-i for i = 0 .. p-1, as syllable tuples
    heads = [()] + [((xi, i),) for i in range(1, p)]
    tails = [()] + [((xi, p - i if elliptic else -i),) for i in range(1, p)]
    words = []
    for sym in symbols(spec):
        if sym == xi:
            if not elliptic:
                words.append(FPWord(((xi, p),)))
            continue
        if sym[0] == "a":
            cosets = range(p)
        elif sym[0] == "t":
            cosets = [0 if ("f", sym[1]) == xi else p - 1]
        else:
            cosets = range(1, p)
        c = lam * phi.image(sym)
        syllable = ((sym, 1),)
        words += [FPWord(heads[i] + syllable + tails[(i + c) % p])
                  for i in cosets]
    return words
