"""Brute-force orbit oracles for generator-image data.

A surjective homomorphism from a cyclic-Schottky group onto Z_p with
torsion-free kernel is described by its images on the generator roster:
a vector ``a`` (loxodromic free factors, any residues), ``e`` (elliptic
factors, units only), and per-pair vectors ``tau``/``f`` (loxodromic /
elliptic halves of the rank-two abelian factors; ``f`` units only).

Two independent counters live here:

* ``canonical_codes`` (behind ``orbit_count_tuples`` and the rotation
  tuples of :mod:`.surfaces`) enumerates the unit-vector pairs (u, v) and
  keeps one code per orbit under block permutation, entrywise inversion
  u -> p - u, and optionally a global unit rescale.
* ``bfs_orbit_count`` labels every state of the full image space by the
  orbits of the elementary moves that geometric automorphisms induce
  (torsion shifts into the loxodromic images, block permutations and
  inversions, Nielsen moves on the free block when no torsion is present).

Neither counter consults a formula; the ``oracle`` command and the tests
compare them with each other and with ``closed_form_orbit_count``.  Its
plain count is the multiset count M of ``strata.component_bounds``, from
the same product, and its scaled count is a Burnside average of such
products; so ``oracle`` is also the enumeration check of M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .strata import _multisets, check_prime

__all__ = [
    "ActionSpec",
    "ImageTuple",
    "HomImage",
    "BudgetExceeded",
    "PERM_INV",
    "PERM_INV_SCALE",
    "canonical_form",
    "canonical_codes",
    "orbit_count_tuples",
    "closed_form_orbit_count",
    "bfs_orbit_count",
]


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration would exceed its configured budget."""

    def __init__(self, required, budget, what="tuples"):
        self.required = required
        self.budget = budget
        super().__init__(
            f"enumeration requires {required} {what}, exceeding budget {budget}"
        )


@dataclass(frozen=True)
class ActionSpec:
    """Which identifications the canonical form quotients by, besides the
    permutations within each block, which it always quotients by."""

    invert: bool = True
    global_scale: bool = False


PERM_INV = ActionSpec(invert=True, global_scale=False)
PERM_INV_SCALE = ActionSpec(invert=True, global_scale=True)


@dataclass(frozen=True)
class ImageTuple:
    """Unit vectors u (length r) and v (length s) of images in Z_p^*."""

    p: int
    u: Tuple[int, ...]
    v: Tuple[int, ...]

    def __post_init__(self):
        check_prime(self.p)
        for block in (self.u, self.v):
            for c in block:
                if not 1 <= c <= self.p - 1:
                    raise ValueError(f"entry {c} not a unit mod {self.p}")


@dataclass(frozen=True)
class HomImage:
    """Full image vector of a homomorphism onto Z_p with torsion-free kernel.

    ``a`` and ``tau`` take any residues, ``e`` and ``f`` must be units
    (the torsion-free condition), and at least one coordinate has to be
    nonzero (surjectivity; when r = s = 0 this forces some a_j != 0).
    """

    p: int
    a: Tuple[int, ...] = ()
    e: Tuple[int, ...] = ()
    tau: Tuple[int, ...] = ()
    f: Tuple[int, ...] = ()

    def __post_init__(self):
        check_prime(self.p)
        if len(self.tau) != len(self.f):
            raise ValueError("tau and f must have equal length (one per pair)")
        for c in self.a + self.tau:
            if not 0 <= c <= self.p - 1:
                raise ValueError(f"residue {c} out of range mod {self.p}")
        for c in self.e + self.f:
            if not 1 <= c <= self.p - 1:
                raise ValueError(
                    f"elliptic image {c} must be a unit mod {self.p} "
                    "(torsion-free kernel)"
                )
        if not any(self.flat()):
            raise ValueError("homomorphism is not surjective: all images are zero")

    def flat(self):
        return self.a + self.e + self.tau + self.f


def canonical_form(x, action=PERM_INV):
    """Canonical representative of the orbit of ``x`` under ``action``.

    Each block is sorted, after replacing each entry by min(c, p-c) under
    invert; with global_scale the lexicographically least result
    over all unit multiples (applied to both blocks simultaneously) is
    taken.  Idempotent and constant on orbits.
    """
    p = x.p
    best = None
    for lam in range(1, p) if action.global_scale else (1,):
        cand = []
        for block in (x.u, x.v):
            mapped = [lam * c % p for c in block]
            if action.invert:
                mapped = [min(c, p - c) for c in mapped]
            cand.append(tuple(sorted(mapped)))
        if best is None or cand < best:
            best = cand
    return ImageTuple(p, best[0], best[1])


def _sorting_network(n):
    """Comparators (i, j), i < j, that sort any n inputs: Batcher's merge
    exchange (Knuth, TAOCP vol. 3, 5.2.2, Algorithm M)."""
    pairs = []
    p = top = 1 << (n - 1).bit_length() - 1 if n > 1 else 0
    while p:
        q, r, d = top, 0, p
        while True:
            pairs.extend((i, i + d) for i in range(n - d) if i & p == r)
            if q == p:
                break
            q, r, d = q >> 1, p, q - p
        p >>= 1
    return pairs


def canonical_codes(p, r, s, action=PERM_INV, budget=10**7):
    """The distinct canonical codes over all of (Z_p^*)^r x (Z_p^*)^s, sorted.

    Exhaustive enumeration (vectorised), no formula involved: one code per
    orbit.  A code is the big-endian base-p number of the canonical form's
    entries u then v, so code order is the lexicographic order of the
    forms.  Raises BudgetExceeded when (p-1)^(r+s) exceeds ``budget``.
    """
    check_prime(p, minimum=3)
    if r < 0 or s < 0:
        raise ValueError("r and s must be >= 0")
    k, n = r + s, p - 1
    total = n**k
    if total > budget:
        raise BudgetExceeded(total, budget)
    if p**k >= 2**63:
        raise BudgetExceeded(p**k, 2**63, what="distinct codes")
    import numpy as np  # deferred: commands that never call it start faster

    dtype = np.min_scalar_type(p - 1)
    columns = [np.empty(total, dtype) for _ in range(k)]
    spare = np.empty(total, dtype)
    # -lam gives the entries of lam negated, which invert identifies
    top = (p + 1) // 2 if action.invert else p
    scalings = range(1, top) if action.global_scale else (1,)
    # sort each block by compare-exchange, rebinding columns, not copying
    networks = [(0, _sorting_network(r)), (r, _sorting_network(s))]
    best = None
    for lam in scalings:
        image = lam * np.arange(1, p) % p
        if action.invert:
            image = np.minimum(image, p - image)
        image = image.astype(dtype)[:, None]
        for i, column in enumerate(columns):
            column.reshape(n**i, n, -1)[...] = image
        for lo, network in networks:
            for i, j in network:
                low, high = columns[lo + i], columns[lo + j]
                np.minimum(low, high, out=spare)
                np.maximum(low, high, out=high)
                columns[lo + i], spare = spare, low
        codes = np.zeros(total, np.int32 if p**k < 2**31 else np.int64)
        for column in columns:
            codes *= p
            codes += column
        best = codes if best is None else np.minimum(best, codes, out=best)
    best.sort()
    return best[np.concatenate(([True], best[1:] != best[:-1]))]


def orbit_count_tuples(p, r, s, action=PERM_INV, budget=10**7):
    """Count distinct canonical forms over all of (Z_p^*)^r x (Z_p^*)^s, by
    the exhaustive enumeration of :func:`canonical_codes`; no formula."""
    return int(canonical_codes(p, r, s, action, budget).size)


def closed_form_orbit_count(p, r, s, scaled=False):
    """``orbit_count_tuples`` by formula.  Under PERM_INV an orbit is one
    multiset of the h = (p-1)/2 classes +-c per block; PERM_INV_SCALE adds a
    cyclic group of order h, and Burnside's lemma gives (phi Euler's totient)
    (1/h) sum_{d | gcd(h,r,s)} phi(d) C(r/d+h/d-1, r/d) C(s/d+h/d-1, s/d)."""
    check_prime(p, minimum=3)
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
    p - 1 and digit = value - 1 for the units e and f.
    """
    import numpy as np

    # unsigned, and wide enough for a sum of two residues (see mod)
    dtype = np.min_scalar_type(2 * p)
    radices = [p] * t + [p - 1] * r + [p] * s + [p - 1] * s
    strides = [math.prod(radices[c + 1 :]) for c in range(len(radices))]
    values = [
        np.tile(np.repeat(np.arange(radix, dtype=dtype) + (radix < p), stride),
                index.size // (radix * stride))
        for radix, stride in zip(radices, strides)
    ]
    a, e = range(t), range(t, t + r)
    tau, f = range(t + r, t + r + s), range(t + r + s, t + r + 2 * s)

    def move(changes):
        """Target index when each coordinate c takes the values changes[c]."""
        out = index.copy()
        for c, new in changes.items():
            delta = np.subtract(new, values[c], dtype=index.dtype)
            delta *= strides[c]
            out += delta
        return out

    def mod(x):
        """x mod p for unsigned x in [0, 2p): x - p wraps above x when x < p."""
        return np.minimum(x, x - p, out=x)

    # torsion shifts tau_k -> tau_k + f_k
    for k in range(s):
        yield move({tau[k]: mod(values[tau[k]] + values[f[k]])})
    if r > 0 or s > 0:
        # shift a_j by the first available elliptic image
        shift = values[e[0] if r > 0 else f[0]]
        for j in a:
            yield move({j: mod(values[j] + shift)})
    else:
        # Nielsen moves within the free block
        for j in a:
            for i in a:
                if i != j:
                    yield move({j: mod(values[j] + values[i])})
        for j in a:
            yield move({j: mod(p - values[j])})
        for j in range(t - 1):
            yield move({a[j]: values[a[j + 1]], a[j + 1]: values[a[j]]})
    # e-block permutations and entrywise inversion
    for j in range(r - 1):
        yield move({e[j]: values[e[j + 1]], e[j + 1]: values[e[j]]})
    for j in e:
        yield move({j: p - values[j]})
    # pair permutations and pair inversion
    for k in range(s - 1):
        yield move({tau[k]: values[tau[k + 1]], tau[k + 1]: values[tau[k]],
                    f[k]: values[f[k + 1]], f[k + 1]: values[f[k]]})
    for k in range(s):
        yield move({f[k]: p - values[f[k]], tau[k]: mod(p - values[tau[k]])})
    if scale:  # by the least generator of the units mod p (1 when p = 2)
        root = next(g for g in range(1, p)
                    if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
        table = (root * np.arange(p) % p).astype(dtype)
        yield move({c: table[column] for c, column in enumerate(values)})


def _orbit_count(total, moves):
    """Orbits on range(total) of the group generated by the permutations
    ``moves(index)`` yields; they are rebuilt each sweep, not kept, so
    memory stays a few arrays of ``total`` however many moves there are.

    A sweep lowers each label (at first the state's own index) to the
    label of the state each move sends it to, then pointer jumping
    (label <- label[label]) runs to a fixed point.  Orbits of a permutation
    group are strongly connected, so once a sweep changes nothing every
    orbit is labelled by its least state, the one labelled by itself.
    """
    import numpy as np

    index = np.arange(total, dtype=np.int32 if total < 2**31 else np.int64)
    label = index.copy()
    while True:
        before = label.copy()
        for target in moves(index):
            np.minimum(label, label[target], out=label)
        jumped = label[label]
        while not np.array_equal(jumped, label):
            label, jumped = jumped, jumped[jumped]
        if np.array_equal(label, before):
            return int(np.count_nonzero(label == index))


def bfs_orbit_count(p, t, r, s, action=PERM_INV, *, budget=10**7):
    """Count orbits of valid image vectors under the elementary move set.

    The move set is exactly: (a) tau_k -> tau_k + f_k; (b) a_j shifted by
    e_1 (or f_1 when r = 0 < s); (c) Nielsen moves on the a-block when
    r = s = 0; (d) permutation/inversion of the e-block; (e) permutation
    of (tau, f) pairs and pair inversion (simultaneous negation of tau_k
    with f_k); (f) a global unit rescale iff ``action.global_scale``.

    Exhaustive over every state, with one neighbour-index array per move;
    the valid states are those with unit e/f entries and at least one
    nonzero coordinate.
    """
    check_prime(p)
    total = p**t * (p - 1) ** r * p**s * (p - 1) ** s
    if total > budget:
        raise BudgetExceeded(total, budget, what="image vectors")
    if min(t, r, s) < 0:
        raise ValueError("repeat argument cannot be negative")
    count = _orbit_count(total, lambda index: _move_targets(
        index, p, t, r, s, action.global_scale))
    # when r = s = 0 the all-zero a-block is not surjective; every move
    # fixes it, so it is an orbit of its own
    return count - 1 if r == 0 and s == 0 else count
