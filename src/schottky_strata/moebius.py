"""Double-precision Moebius transformations and matrix realisations of
cyclic-Schottky structural data.

Maps are unit-determinant 2x2 complex matrices up to sign; every test
against the identity compares with both +I and -I.  The classification
and order tolerances, which the CLI sets, live in one configuration
object; the commutation tolerance is the constant ``_COMMUTATION_TOL``.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Dict, Tuple

from .cyclic_schottky import (FPWord, GroupSpec, build_spec, fpword_str,
                              kernel_sample)

__all__ = [
    "MobiusClass",
    "MobiusMap",
    "Tolerances",
    "check_finite_positive",
    "DEFAULT_TOLERANCES",
    "MatrixGroupSpec",
    "classify",
    "order_check",
    "build_matrix_group",
    "matrix_group_defects",
    "purely_loxodromic_sample",
]


def check_finite_positive(what, value):
    """Raise ValueError unless ``value`` is a finite positive number."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{what} must be finite and positive, got {value}")


@dataclass(frozen=True)
class Tolerances:
    classify: float = 1e-9
    order: float = 1e-8

    def __post_init__(self):
        for name, value in vars(self).items():
            check_finite_positive(f"tolerance {name}", value)


DEFAULT_TOLERANCES = Tolerances()


class MobiusClass(enum.Enum):
    LOXODROMIC = "loxodromic"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    IDENTITY = "identity"


class MobiusMap:
    """Matrix [[a, b], [c, d]] normalised to determinant 1.

    The square root of the determinant is chosen so the resulting trace
    has nonnegative real part (ties: nonnegative imaginary part), which
    makes normalisation idempotent and sign-stable.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d, normalize=True):
        a, b, c, d = complex(a), complex(b), complex(c), complex(d)
        if normalize:
            det = a * d - b * c
            if abs(det) == 0:
                raise ValueError("matrix is singular")
            root = cmath.sqrt(det)
            a, b, c, d = a / root, b / root, c / root, d / root
            tr = a + d
            if tr.real < 0 or (tr.real == 0 and tr.imag < 0):
                a, b, c, d = -a, -b, -c, -d
        self.a, self.b, self.c, self.d = a, b, c, d

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def trace(self):
        return self.a + self.d

    def __mul__(self, other):
        m = object.__new__(MobiusMap)  # complex entries: nothing to convert
        m.a = self.a * other.a + self.b * other.c
        m.b = self.a * other.b + self.b * other.d
        m.c = self.c * other.a + self.d * other.c
        m.d = self.c * other.b + self.d * other.d
        return m

    def inverse(self):
        # determinant is 1, so the adjugate is the inverse
        return MobiusMap(self.d, -self.b, -self.c, self.a, normalize=False)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = MobiusMap(1, 0, 0, 1, normalize=False)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self):
        return f"MobiusMap({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


def _frobenius(entries):
    return math.sqrt(sum(abs(x) ** 2 for x in entries))


def _frobenius_m(m):
    return _frobenius(m.entries())


def dist_to_unit(m):
    """min(||M - I||, ||M + I||) in the Frobenius norm (PSL sign folded)."""
    # the squares are added left to right, in the order _frobenius adds them
    b2, c2 = abs(m.b) ** 2, abs(m.c) ** 2
    plus = math.sqrt(abs(m.a - 1) ** 2 + b2 + c2 + abs(m.d - 1) ** 2)
    minus = math.sqrt(abs(m.a + 1) ** 2 + b2 + c2 + abs(m.d + 1) ** 2)
    return min(plus, minus)


def classify(m, tolerances=DEFAULT_TOLERANCES):
    """Trace classification, identity and parabolic first.

    With eps = tolerances.classify: IDENTITY within eps of +-I; PARABOLIC
    when tr^2 is within eps of 4; ELLIPTIC when tr^2 is real within eps
    and lies in [0, 4-eps]; LOXODROMIC otherwise.
    """
    eps = tolerances.classify
    if dist_to_unit(m) <= eps:
        return MobiusClass.IDENTITY
    tr2 = m.trace() ** 2
    if abs(tr2 - 4) <= eps:
        return MobiusClass.PARABOLIC
    if abs(tr2.imag) <= eps and -eps <= tr2.real <= 4 - eps:
        return MobiusClass.ELLIPTIC
    return MobiusClass.LOXODROMIC


_MACH_EPS = 2.220446049250313e-16


def order_check(m, p, tolerances=DEFAULT_TOLERANCES):
    """True iff M^p is +-I within the order tolerance and M itself is not
    the identity.

    M^p of a far-centred matrix is ill-conditioned in doubles (its error
    grows like ||M||^3), so the tolerance is widened to 64 eps ||M||^3
    when that is larger.
    """
    if dist_to_unit(m) <= tolerances.classify:
        return False
    eps = max(tolerances.order, 64 * _MACH_EPS * _frobenius_m(m) ** 3)
    return dist_to_unit(m**p) <= eps


# ---------------------------------------------------------------------------
# concrete matrix groups
#
# All three factory matrices are written in closed form (entries of the
# conjugated diagonal model expanded symbolically) rather than as matrix
# products; this keeps each entry within a couple of ulps and is what makes
# the order/commutation checks meaningful at distant centers.

_COMMUTATION_TOL = 1e-10  # commutator defect allowed before widening
_OFFSET = 0.1
_MULTIPLIER = 9.0


def _loxodromic_at(center, offset, multiplier):
    """Loxodromic with real fixed points center -+ offset; attracting at
    center + offset; trace sqrt(m) + 1/sqrt(m)."""
    u = math.sqrt(multiplier)
    ch, sh = (u + 1 / u) / 2, (u - 1 / u) / 2
    k = center / offset
    return MobiusMap(
        ch + k * sh,
        -((center * center - offset * offset) / offset) * sh,
        sh / offset,
        ch - k * sh,
    )


def _elliptic_conj_pair(center, offset, p):
    """Order-p rotation fixing the conjugate pair center -+ i*offset.

    The fixed points are conjugate, so the matrix is real.
    """
    cs, sn = math.cos(math.pi / p), math.sin(math.pi / p)
    k = center / offset
    return MobiusMap(
        cs + k * sn,
        -((center * center + offset * offset) / offset) * sn,
        sn / offset,
        cs - k * sn,
    )


def _elliptic_real_pair(center, offset, p):
    """Order-p rotation fixing the real pair center -+ offset (pair frame)."""
    cs, sn = math.cos(math.pi / p), math.sin(math.pi / p)
    k = center / offset
    return MobiusMap(
        cs + 1j * k * sn,
        -1j * ((center * center - offset * offset) / offset) * sn,
        1j * sn / offset,
        cs - 1j * k * sn,
    )


@dataclass(frozen=True)
class MatrixGroupSpec:
    """Concrete matrices for a GroupSpec, one per roster symbol."""

    spec: GroupSpec
    matrices: Dict[Tuple[str, int], MobiusMap]
    centers: Dict[Tuple[str, int], complex]


def build_matrix_group(tup, separation=10.0):
    """Place the free factors at well-separated centers on the real axis.

    Elliptic factors take the centers nearest the origin, then the
    commuting pairs, then the loxodromic factors (the torsion checks have
    the tightest tolerances and their double-precision accuracy decays
    with the center magnitude).  Elliptic generators rotate by 2 pi / p
    about center -+ _OFFSET*i; loxodromic generators have real fixed
    points center -+ _OFFSET; each pair shares one real fixed-point set,
    so its commutator vanishes to rounding.  ``matrix_group_defects``
    checks the algebraic and classification invariants; nothing here
    certifies discreteness.
    """
    check_finite_positive("separation", separation)
    spec = build_spec(tup)
    p = tup.p
    matrices = {}
    centers = {}

    def place(sym, center, factor, *args):
        try:
            m = factor(center, _OFFSET, *args)
        except ValueError:  # the normalising determinant cancelled to 0
            m = None
        if m is None or not all(map(cmath.isfinite, (center, *m.entries()))):
            raise ValueError(f"separation {separation} places {sym[0]}"
                             f"{sym[1]} beyond double precision")
        matrices[sym] = m
        centers[sym] = complex(center, 0)

    slot = 0
    for j in range(1, tup.r + 1):
        place(("e", j), slot * separation, _elliptic_conj_pair, p)
        slot += 1
    for k in range(1, tup.s + 1):
        place(("t", k), slot * separation, _loxodromic_at, _MULTIPLIER)
        place(("f", k), slot * separation, _elliptic_real_pair, p)
        slot += 1
    for j in range(1, tup.t + 1):
        place(("a", j), slot * separation, _loxodromic_at, _MULTIPLIER)
        slot += 1
    return MatrixGroupSpec(spec, matrices, centers)


def matrix_group_defects(mg, tolerances=DEFAULT_TOLERANCES):
    """Messages naming each built matrix that breaks its invariant; empty
    when every loxodromic factor classifies as loxodromic, every elliptic
    factor is elliptic of order p and every pair commutes.

    Far centers make the torsion checks intrinsically ill-conditioned in
    doubles: ``order_check`` widens the order tolerance by ||M||^3, and
    the commutation tolerance is widened by ||T||*||F|| here.  Tests
    assert the plain tolerances on the well-conditioned instances.
    """
    p = mg.spec.p
    defects = []
    for sym, m in mg.matrices.items():
        cls = classify(m, tolerances=tolerances)
        if sym[0] in ("a", "t"):
            if cls is not MobiusClass.LOXODROMIC:
                defects.append(f"{sym[0]}{sym[1]} is {cls.value}, not loxodromic")
            continue
        if not order_check(m, p, tolerances=tolerances):
            defects.append(f"{sym[0]}{sym[1]} does not have order {p}")
        if cls is not MobiusClass.ELLIPTIC:
            defects.append(f"{sym[0]}{sym[1]} is {cls.value}, not elliptic")
    for k in range(1, mg.spec.tuple.s + 1):
        t_m, f_m = mg.matrices[("t", k)], mg.matrices[("f", k)]
        delta = commutator_defect(t_m, f_m)
        eff = max(
            _COMMUTATION_TOL,
            64 * _MACH_EPS * _frobenius_m(t_m) * _frobenius_m(f_m),
        )
        if delta > eff:
            defects.append(f"pair {k} fails to commute: defect {delta:.3e}")
    return defects


def commutator_defect(m1, m2):
    """min over signs of ||m1 m2 -+ m2 m1|| in the Frobenius norm."""
    ab, ba = m1 * m2, m2 * m1
    return min(
        _frobenius([x - y for x, y in zip(ab.entries(), ba.entries())]),
        _frobenius([x + y for x, y in zip(ab.entries(), ba.entries())]),
    )


def purely_loxodromic_sample(
    mg,
    phi,
    max_syllables=4,
    budget=10**6,
    tolerances=DEFAULT_TOLERANCES,
):
    """Classify every short kernel word; pass iff all non-identity products
    are loxodromic.

    Violations (elliptic/parabolic evaluations) are reported with the
    offending word and its trace; they indicate insufficient separation
    rather than a hard error.

    A word's matrix is the left-to-right product of its syllable powers
    from the identity.  Words come in level, then lexicographic order, so
    ``products`` keeps the prefix products of the previous word and only
    the syllables after the shared prefix are multiplied.
    """
    words = kernel_sample(phi, max_syllables, budget=budget)
    powers = {}
    texts = {}
    previous = ()
    products = [MobiusMap(1, 0, 0, 1, normalize=False)]
    entries = []
    violations = []
    n_lox = 0
    n_identity = 0
    for w in words:
        shared = 0
        for old, new in zip(previous, w.syllables):
            if old != new:
                break
            shared += 1
        del products[shared + 1:]
        for syl in w.syllables[shared:]:
            if syl not in powers:
                powers[syl] = mg.matrices[syl[0]] ** syl[1]
                texts[syl] = fpword_str(FPWord((syl,)))
            products.append(products[-1] * powers[syl])
        previous = w.syllables
        m = products[-1]
        cls = classify(m, tolerances)
        tr = m.trace()
        # str(w) from syllable texts written once (a test pins the equality)
        text = " ".join([texts[syl] for syl in w.syllables])
        entry = {"word": text, "class": cls.value, "trace": [tr.real, tr.imag]}
        entries.append(entry)
        if cls is MobiusClass.LOXODROMIC:
            n_lox += 1
        elif cls is MobiusClass.IDENTITY:
            n_identity += 1
        else:
            violations.append(entry)
    return {
        "passed": not violations,
        "n_words": len(words),
        "n_loxodromic": n_lox,
        "n_identity": n_identity,
        "violations": violations,
        "words": entries,
    }
