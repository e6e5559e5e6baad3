"""Orbit oracles for generator-image data.

A surjective homomorphism from a cyclic-Schottky group onto Z_p with
torsion-free kernel is described by its images on the generator roster:
a vector ``a`` (loxodromic free factors, any residues), ``e`` (elliptic
factors, units only), and per-pair vectors ``tau``/``f`` (loxodromic /
elliptic halves of the rank-two abelian factors; ``f`` units only).

Two independent counters live here:

* ``orbit_count_tuples`` (also behind the rotation tuples of
  :mod:`.surfaces`) counts the orbits of the unit-vector pairs (u, v)
  under block permutation, entrywise inversion u -> p - u, and optionally
  a global unit rescale, by Burnside's lemma over cycle types: a sum of
  cycle-index coefficients, each from the exponential formula's
  recurrence.
* ``bfs_orbit_count`` labels every state of the full image space by the
  orbits of the elementary moves that geometric automorphisms induce
  (torsion shifts into the loxodromic images, block permutations and
  inversions, Nielsen moves on the free block when no torsion is present).
  Each move's targets, the state grid plus delta tables over the axes it
  reads, are merged into the labels by hooking roots and pointer jumping;
  each orbit ends labelled by its least state.  It alone loads numpy.

Neither counts multisets, as ``closed_form_orbit_count`` does: plainly
the M of ``strata.component_bounds``, scaled a Burnside average of such
products.  ``oracle`` and the tests compare all three, so ``oracle`` is a
second derivation of M.  Both counters refuse work past their budget.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .strata import (_multisets, _validate_trs, check_prime,
                     multiset_log10, refuse_unwritable, within_budget,
                     within_budget_of_powers, writable)

__all__ = [
    "ActionSpec",
    "HomImage",
    "PERM_INV",
    "PERM_INV_SCALE",
    "orbit_count_tuples",
    "closed_form_orbit_count",
    "bfs_orbit_count",
]

# which identifications the orbit counts quotient by, besides the
# permutations within each block, which they always quotient by
ActionSpec = namedtuple("ActionSpec", "invert global_scale",
                        defaults=(True, False))

PERM_INV = ActionSpec(invert=True, global_scale=False)
PERM_INV_SCALE = ActionSpec(invert=True, global_scale=True)


class HomImage(namedtuple("HomImage", "p a e tau f")):
    """Full image vector of a homomorphism onto Z_p with torsion-free kernel.

    ``a`` and ``tau`` take any residues, ``e`` and ``f`` must be units
    (the torsion-free condition), and at least one coordinate has to be
    nonzero (surjectivity; when r = s = 0 this forces some a_j != 0).
    Construction validates.
    """

    __slots__ = ()

    def __new__(cls, p, a=(), e=(), tau=(), f=()):
        check_prime(p)
        if len(tau) != len(f):
            raise ValueError("tau and f must have equal length (one per pair)")
        for c in a + tau:
            if not 0 <= c <= p - 1:
                raise ValueError(f"residue {c} out of range mod {p}")
        for c in e + f:
            if not 1 <= c <= p - 1:
                raise ValueError(
                    f"elliptic image {c} must be a unit mod {p} "
                    "(torsion-free kernel)"
                )
        if not any(a + e + tau + f):
            raise ValueError("homomorphism is not surjective: all images are zero")
        return tuple.__new__(cls, (p, a, e, tau, f))


def _primitive_root(p):
    """The least generator of the units mod the prime p (1 when p = 2)."""
    n, factors = p - 1, set()
    for q in range(2, math.isqrt(n) + 1):
        while n % q == 0:
            factors.add(q)
            n //= q
    factors |= {n} - {1}
    return next(g for g in range(1, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def _coefficient(q, e, n):
    """a_n = [x^n] exp(q sum_{e | k} x^k / k), the weight of the cycle types
    of a block of size n, from n a_n = q sum_{j >= 1} a_{n - je} with the
    sum kept running along n's residue class mod e, zero off it.  Every
    e here divides q, so each a_n is an integer and each division exact."""
    if n % e:
        return 0
    a = total = 1  # a_0, then the sum of the a_{je} so far
    for m in range(e, n + 1, e):
        a = q * total // m
        total += a
    return a


def orbit_count_tuples(p, r, s, action=PERM_INV, budget=10**7):
    """Orbits of (u, v) in (Z_p^*)^r x (Z_p^*)^s under the permutations of
    each block, entrywise multiplication by U = {+-1} under
    ``action.invert`` ({1} otherwise) and, under ``action.global_scale``,
    the p - 1 global rescales lam: Burnside's lemma over cycle types.

    A k-cycle whose multipliers multiply to mu fixes p - 1 vectors iff
    lam^k mu = 1; some mu in U does iff e | k, e = ord(lam) / gcd(ord(lam),
    |U|).  By the exponential formula the fixed points of a block of size
    n, averaged over its group, are ``_coefficient((p-1)/|U|, e, n)``.  The
    plain count is the product at lam = 1, the scaled one its average over
    lam, phi(d) rescales of each order d; only d | gcd(p-1, |U| gcd(r, s))
    fix anything, so p - 1 is never factored.

    Refused before the sum: past the text limit by ``strata.multiset_log10``
    of the plain count, less log10(p - 1) when scaled; past ``budget`` in
    recurrence steps, each charged that bound's digits (a step works on
    integers up to the plain count), r + s first, then sum((r + s) / e).
    """
    check_prime(p, minimum=3)
    _validate_trs(0, r, s)
    units = 2 if action.invert else 1
    q = (p - 1) // units
    rescales = p - 1 if action.global_scale and r + s else 1
    what = f"the orbit count of p={p}, r={r}, s={s}"
    log10 = multiset_log10(q, r, s)
    refuse_unwritable(log10 - math.log10(rescales), what)
    digits = 1 + int(log10)
    within_budget((r + s) * digits, budget, "digit steps")
    weights = {1: 1}  # e -> the sum of phi(d) over its d
    if rescales > 1:
        top = math.gcd(p - 1, units * math.gcd(r, s))
        orders = sorted({k for j in range(1, math.isqrt(top) + 1)
                         if top % j == 0 for k in (j, top // j)})
        totient, weights = {}, {}
        for d in orders:  # Gauss: the phi(c) of the divisors c of d sum to d
            totient[d] = d - sum(t for c, t in totient.items() if d % c == 0)
            e = d // math.gcd(d, units)
            weights[e] = weights.get(e, 0) + totient[d]
    within_budget(sum((r + s) // e for e in weights) * digits, budget,
                  "digit steps")
    total = sum(w * _coefficient(q, e, r) * _coefficient(q, e, s)
                for e, w in weights.items())
    return writable(total // rescales, what)


def closed_form_orbit_count(p, r, s, scaled=False):
    """``orbit_count_tuples`` by formula.  Under PERM_INV an orbit is one
    multiset of the h = (p-1)/2 classes +-c per block; PERM_INV_SCALE adds a
    cyclic group of order h, and Burnside's lemma gives (phi Euler's totient)
    (1/h) sum_{d | gcd(h,r,s)} phi(d) C(r/d+h/d-1, r/d) C(s/d+h/d-1, s/d)."""
    check_prime(p, minimum=3)
    _validate_trs(0, r, s)
    if scaled and r == s == 0:
        return 1  # the phi(d) over the divisors d of h sum to h
    h = (p - 1) // 2
    common = math.gcd(h, r, s) if scaled else 1  # d = 1 is the plain count
    total = 0
    for d in range(1, common + 1):
        if common % d == 0:
            totient = sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1)
            total += totient * _multisets(h // d, r // d, s // d)
    return total // h if scaled else total


def _move_targets(index, p, t, r, s, scale):
    """Yield, for each elementary move, the index of every state's image.

    The states a | e | tau | f are the big-endian mixed-radix numbers in
    ``index``: radix p and digit = value for the residues a and tau, radix
    p - 1 and digit = value - 1 for the units e and f.  On the grid of
    states, one axis per coordinate, a move that gives coordinate c new
    values shifts each state by (new - old value) * stride_c: a delta table
    over only the axes the move reads.  A target is a copy of the grid plus
    its broadcast delta tables, one pass over the states per table.
    """
    import numpy as np

    radices = [p] * t + [p - 1] * r + [p] * s + [p - 1] * s
    strides = [math.prod(radices[c + 1 :]) for c in range(len(radices))]
    grid = index.reshape(radices)
    # each along its own axis, in np.intp; only the deltas take index.dtype
    values = [np.arange(radix, dtype=np.intp).reshape(
        [-1 if d == c else 1 for d in range(len(radices))]) + (radix < p)
        for c, radix in enumerate(radices)]
    a, e = range(t), range(t, t + r)
    tau, f = range(t + r, t + r + s), range(t + r + s, t + r + 2 * s)

    def move(*deltas):
        out = grid.copy()  # a copy even when no coordinate changes
        for delta in deltas:
            out += delta.astype(index.dtype)
        return out.reshape(-1)

    def becomes(c, new):  # coordinate c takes the values new
        return (new - values[c]) * strides[c]

    def swap(i, j):  # coordinates i and j, of one radix, trade values
        return (values[j] - values[i]) * (strides[i] - strides[j])

    # torsion shifts tau_k -> tau_k + f_k
    for k in range(s):
        yield move(becomes(tau[k], (values[tau[k]] + values[f[k]]) % p))
    if r > 0 or s > 0:
        # shift a_j by the first available elliptic image
        shift = values[e[0] if r > 0 else f[0]]
        for j in a:
            yield move(becomes(j, (values[j] + shift) % p))
    else:
        # Nielsen moves within the free block
        for j, i in itertools.permutations(a, 2):
            yield move(becomes(j, (values[j] + values[i]) % p))
        for j in a:
            yield move(becomes(j, -values[j] % p))
        for j in range(t - 1):
            yield move(swap(a[j], a[j + 1]))
    # e-block permutations and entrywise inversion
    for j in range(r - 1):
        yield move(swap(e[j], e[j + 1]))
    for j in e:
        yield move(becomes(j, p - values[j]))
    # pair permutations and pair inversion
    for k in range(s - 1):
        yield move(swap(tau[k], tau[k + 1]), swap(f[k], f[k + 1]))
    for k in range(s):
        yield move(becomes(f[k], p - values[f[k]]),
                   becomes(tau[k], -values[tau[k]] % p))
    if scale:  # by the least generator of the units mod p (1 when p = 2)
        root = _primitive_root(p)
        yield move(*(becomes(c, root * column % p)
                     for c, column in enumerate(values)))


def _hooked(label, target):
    """Hook the roots of the pairs (state, its target) whose labels differ;
    False when no pair does.  The greater root of each pair takes the
    lesser by one scatter of the minimum, so a root in several pairs takes
    its least partner, and a later round hooks the rest."""
    import numpy as np

    other = label.take(target)
    apart = other != label
    if not apart.any():
        return False
    mine, other = label[apart], other[apart]
    greater = np.maximum(mine, other)
    np.minimum.at(label, greater, np.minimum(mine, other, out=mine))
    return True


def _orbit_count(total, moves):
    """Orbits on range(total) of the group generated by the permutations
    ``moves(index)`` yields.  The generator is walked once and each target
    array is dropped when its move is merged, so memory stays a few arrays
    of ``total`` however many moves there are.

    Connected components by hooking and pointer jumping (Shiloach and
    Vishkin, J. Algorithms 3, 1982).  Every label is a root, a state
    labelled by itself, and never above its state.  A move is merged by
    rounds until each state shares its target's label: ``_hooked``, then
    pointer jumping (label <- label[label], a gather) to a fixed point.
    The partition only coarsens, so a merged move stays merged, and each
    orbit ends labelled by its least state.
    """
    import numpy as np

    index = np.arange(total, dtype=np.int32 if total < 2**31 else np.int64)
    label = index.copy()
    for target in moves(index):
        while _hooked(label, target):
            jumped = label.take(label)
            while not (jumped == label).all():
                label, jumped = jumped, jumped.take(jumped)
    return int(np.count_nonzero(label == index))


def bfs_orbit_count(p, t, r, s, action=PERM_INV, *, budget=10**7):
    """Count orbits of valid image vectors under the elementary move set.

    The move set is exactly: (a) tau_k -> tau_k + f_k; (b) a_j shifted by
    e_1 (or f_1 when r = 0 < s); (c) Nielsen moves on the a-block when
    r = s = 0; (d) permutation/inversion of the e-block; (e) permutation
    of (tau, f) pairs and pair inversion (simultaneous negation of tau_k
    with f_k); (f) a global unit rescale iff ``action.global_scale``.
    Moves (d) and (e) always invert, so an action without inversion is
    refused with ValueError.

    Exhaustive over every state: each move's neighbour-index array is
    built once, merged by ``_orbit_count`` and dropped.  The valid states
    are those with unit e/f entries and at least one nonzero coordinate.
    """
    check_prime(p)
    _validate_trs(t, r, s)  # before any power is formed from them
    if not action.invert:
        raise ValueError("bfs_orbit_count always quotients by inversion; "
                         "an action without it is not supported")
    total = within_budget_of_powers([[(p, t), (p - 1, r), (p, s), (p - 1, s)]],
                                    budget, "image vectors")
    count = _orbit_count(total, lambda index: _move_targets(
        index, p, t, r, s, action.global_scale))
    # when r = s = 0 the all-zero a-block is not surjective; every move
    # fixes it, so it is an orbit of its own
    return count - 1 if r == 0 and s == 0 else count
