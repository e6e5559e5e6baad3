"""Rotation-number tuples and the fiber-product curve family.

An order-p automorphism with 2m fixed points on each of two commuting
p-gonal projections is encoded by a tuple in (Z_p^*)^m considered up to
coordinate rescaling and permutation.  Tuples in distinct orbits witness
non-conjugate cyclic actions; the curve

    y1^p = prod (x - a_{j,1})^{alpha_j} (x - a_{j,2})^{p - alpha_j}
    y2^p = prod (x - b_{j,1})^{beta_j}  (x - b_{j,2})^{p - beta_j}

carries both actions, and the numeric check below substitutes the closed
fixed-point formulas into the defining equations and reports residuals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Tuple

from .homorbits import ActionSpec, ImageTuple, canonical_codes, canonical_form
from .moebius import check_finite_positive
from .strata import AdmissibleTuple, check_int, check_prime

__all__ = [
    "RotationTuple",
    "CurveData",
    "NearSingular",
    "canonical_rotation",
    "same_orbit",
    "count_orbits",
    "witness_pair",
    "example2_type",
    "random_curve",
    "fixed_point_check",
]


class NearSingular(ValueError):
    """Branch points too close together for residuals to mean anything."""


# rotation tuples are the u-block of ImageTuple up to rescale and permutation
_ROTATION = ActionSpec(invert=False, global_scale=True)


@dataclass(frozen=True)
class RotationTuple:
    """Element of (Z_p^*)^m up to rescaling and permutation."""

    p: int
    entries: Tuple[int, ...]

    def __post_init__(self):
        check_prime(self.p, minimum=5)
        if not self.entries:
            raise ValueError("rotation tuple must have length >= 1")
        for c in self.entries:
            check_int("rotation entry", c)
            if not 1 <= c <= self.p - 1:
                raise ValueError(f"entry {c} is not a unit mod {self.p}")

    @property
    def m(self):
        return len(self.entries)


def canonical_rotation(x):
    """Lexicographically least sorted rescale: min over units of sorted(lam*x)."""
    return canonical_form(ImageTuple(x.p, x.entries, ()), _ROTATION).u


def same_orbit(x, y):
    """True iff y = lam * (x permuted) for some unit lam and permutation."""
    if x.p != y.p:
        raise ValueError(f"modulus mismatch: {x.p} vs {y.p}")
    if x.m != y.m:
        raise ValueError(f"length mismatch: {x.m} vs {y.m}")
    return canonical_rotation(x) == canonical_rotation(y)


def _rotation_codes(p, m):
    """Sorted canonical codes of the orbits in (Z_p^*)^m, one per orbit."""
    check_prime(p, minimum=5)
    if m < 1:
        raise ValueError("m must be >= 1")
    return canonical_codes(p, m, 0, _ROTATION)


def count_orbits(p, m):
    """Number of orbits in (Z_p^*)^m, by exhaustive canonicalisation."""
    return int(_rotation_codes(p, m).size)


def witness_pair(p, m):
    """Two tuples in distinct orbits (lex-least canonical forms), or None.

    Returns None exactly when the action is transitive.
    """
    codes = _rotation_codes(p, m)
    if codes.size < 2:
        return None
    return tuple(
        RotationTuple(p, tuple(int(code) // p**j % p for j in reversed(range(m))))
        for code in codes[:2]
    )


def example2_type(p, m):
    """Admissible tuple of the fiber-product family:
    (g, p; (p-1)(m-1), mp, 0) with g = (p-1)(2mp - p - 1).

    The topological conclusions need m >= 4; smaller m still yields a
    well-defined admissible tuple, outside the family's theorem.
    """
    check_prime(p, minimum=5)
    if m < 1:
        raise ValueError("m must be >= 1")
    g = (p - 1) * (2 * m * p - p - 1)
    return AdmissibleTuple(g, p, (p - 1) * (m - 1), m * p, 0)


@dataclass(frozen=True)
class CurveData:
    """Branch data of the fiber product of two p-gonal curves.

    ``a`` and ``b`` are m pairs of branch points (all 4m pairwise
    distinct); ``alpha`` and ``beta`` are the exponent tuples.
    """

    p: int
    a: Tuple[Tuple[complex, complex], ...]
    b: Tuple[Tuple[complex, complex], ...]
    alpha: RotationTuple
    beta: RotationTuple

    def __post_init__(self):
        check_prime(self.p, minimum=5)
        m = len(self.a)
        if len(self.b) != m or self.alpha.m != m or self.beta.m != m:
            raise ValueError("a, b, alpha, beta must share one length m")
        if self.alpha.p != self.p or self.beta.p != self.p:
            raise ValueError("exponent tuples must share the curve's p")

    @property
    def m(self):
        return len(self.a)

    def branch_points(self):
        return [z for pair in self.a for z in pair] + [
            z for pair in self.b for z in pair
        ]

    def to_json(self):
        pairs = lambda block: [[[z.real, z.imag] for z in pair] for pair in block]
        return {
            "p": self.p,
            "a": pairs(self.a),
            "b": pairs(self.b),
            "alpha": list(self.alpha.entries),
            "beta": list(self.beta.entries),
        }

    @classmethod
    def from_json(cls, data):
        """Inverse of :meth:`to_json`; raises ValueError on malformed data."""
        if not isinstance(data, dict):
            raise ValueError(
                f"curve data must be a JSON object, got {type(data).__name__}"
            )
        missing = [k for k in ("p", "a", "b", "alpha", "beta") if k not in data]
        if missing:
            raise ValueError(f"curve data is missing {', '.join(missing)}")
        unpair = lambda block: tuple(
            tuple(complex(re, im) for re, im in pair) for pair in block
        )
        p = data["p"]
        try:
            return cls(
                p,
                unpair(data["a"]),
                unpair(data["b"]),
                RotationTuple(p, tuple(data["alpha"])),
                RotationTuple(p, tuple(data["beta"])),
            )
        except TypeError as exc:
            raise ValueError(f"malformed curve data: {exc}") from None


_CURVE_HALF_WIDTH = 1.2  # of the square that random_curve draws from
_CURVE_MIN_SEP = 0.05  # least distance between two drawn points


def random_curve(p, m, rng):
    """Deterministic-for-a-seed random CurveData with well-spread points."""
    points = []
    h = _CURVE_HALF_WIDTH
    while len(points) < 4 * m:
        z = complex(rng.uniform(-h, h), rng.uniform(-h, h))
        if all(abs(z - w) >= _CURVE_MIN_SEP for w in points):
            points.append(z)
    a = tuple((points[2 * j], points[2 * j + 1]) for j in range(m))
    b = tuple((points[2 * m + 2 * j], points[2 * m + 2 * j + 1]) for j in range(m))
    alpha = RotationTuple(p, tuple(rng.randrange(1, p) for _ in range(m)))
    beta = RotationTuple(p, tuple(rng.randrange(1, p) for _ in range(m)))
    return CurveData(p, a, b, alpha, beta)


def fixed_point_check(curve, tolerance=1e-9):
    """Substitute the closed-form fixed points into both curve equations.

    For every branch point of the first projection the points
    (a_{j,d}, 0, w^k * (prod (a_{j,d}-b_{i,1})^{beta_i}
    (a_{j,d}-b_{i,2})^{p-beta_i})^{1/p}) must lie on the curve, and
    symmetrically for the second projection.  Integer exponents are applied
    by exact powering before a single principal p-th root; the w^k factor
    then sweeps all root branches.  Passes iff the max residual is at most
    tolerance * (1 + max coordinate magnitude).

    The evaluation is in double precision (``cmath``); a residual that is
    not finite raises ValueError.
    """
    check_finite_positive("tolerance", tolerance)
    pts = curve.branch_points()
    for i, z in enumerate(pts):
        for w in pts[i + 1 :]:
            if abs(z - w) < 1e-12:
                raise NearSingular(
                    f"branch points {z} and {w} are closer than 1e-12"
                )

    try:
        return _fixed_point_residuals(curve, tolerance)
    except OverflowError as exc:
        raise ValueError(
            f"curve coordinates overflow double precision ({exc})"
        ) from exc


def _fixed_point_residuals(curve, tolerance):
    p, m = curve.p, curve.m
    omega = cmath.exp(2j * math.pi / p)
    a = [[complex(z) for z in pair] for pair in curve.a]
    b = [[complex(z) for z in pair] for pair in curve.b]
    alpha, beta = curve.alpha.entries, curve.beta.entries

    def poly(x, pairs, exps):
        acc = complex(1)
        for (z1, z2), q in zip(pairs, exps):
            acc *= (x - z1) ** q * (x - z2) ** (p - q)
        return acc

    entries = []
    max_res = 0.0
    max_mag = 0.0
    # fixed points of the first action sit over the a-points and get their
    # y2 from the beta product, and vice versa
    for family, pairs, other_pairs, other_exps in (("u", a, b, beta),
                                                   ("v", b, a, alpha)):
        for j in range(m):
            for delta in (0, 1):
                x = pairs[j][delta]
                base = poly(x, other_pairs, other_exps)
                root = cmath.exp(cmath.log(base) / p)
                for k in range(p):
                    point = f"{family}[{j + 1},{delta + 1},{k}]"
                    y_other = omega**k * root
                    # the vanishing coordinate's equation holds exactly: its
                    # product has the factor (x - x)
                    res = abs(y_other**p - base)
                    if not math.isfinite(res):
                        # also raised for every base that is not finite
                        raise OverflowError(f"residual {res} at {point}")
                    mag = max(abs(x), abs(y_other))
                    max_res = max(max_res, res)
                    max_mag = max(max_mag, mag)
                    entries.append({"point": point, "residual": res})
    scale = 1.0 + max_mag
    threshold = tolerance * scale
    if math.isinf(threshold):
        raise ValueError(f"tolerance {tolerance} overflows at scale {scale}")
    return {
        "passed": max_res <= threshold,
        "max_residual": max_res,
        "scale": scale,
        "threshold": threshold,
        "tolerance": tolerance,
        "points": entries,
    }
