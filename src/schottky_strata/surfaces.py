"""Rotation-number tuples and the fiber-product curve family.

An order-p automorphism with 2m fixed points on each of two commuting
p-gonal projections is encoded by a tuple in (Z_p^*)^m considered up to
coordinate rescaling and permutation, a plain tuple of ints here.  Tuples
in distinct orbits witness non-conjugate cyclic actions (``witness_pair``;
``count_orbits`` serves the tests and the benchmark); the curve

    y1^p = prod (x - a_{j,1})^{alpha_j} (x - a_{j,2})^{p - alpha_j}
    y2^p = prod (x - b_{j,1})^{beta_j}  (x - b_{j,2})^{p - beta_j}

carries both actions.  Its genus, the fixed points of sigma1 : y1 -> w y1
and the genus of its quotient by sigma1 follow from the branch data by
Riemann-Hurwitz, exactly and independently of the family's admissible
tuple, which they check.
"""

from __future__ import annotations

from .strata import AdmissibleTuple, check_prime, within_budget

__all__ = [
    "count_orbits",
    "witness_pair",
    "example2_type",
    "riemann_hurwitz",
]


def _check_family(p, m):
    check_prime(p, minimum=5)
    if m < 1:
        raise ValueError("m must be >= 1")


def count_orbits(p, m):
    """Number of orbits in (Z_p^*)^m, by exhaustive canonicalisation."""
    # deferred, so verify example2 does not load homorbits
    from .homorbits import ActionSpec, canonical_codes
    _check_family(p, m)
    rotation = ActionSpec(invert=False, global_scale=True)
    return int(canonical_codes(p, m, 0, rotation).size)


_WITNESS_BUDGET = 10**6


def witness_pair(p, m):
    """The two lex-least canonical forms, tuples in distinct orbits, or None
    when the action is transitive (m = 1).

    A canonical form is sorted and starts with 1 (rescale by the inverse of
    any entry), so the least is (1, ..., 1), alone in its orbit since
    rescaling and permutation keep all entries equal.  For m >= 2 every
    other sorted tuple has some entry above 1 and sorts at or above
    (1, ..., 1, 2); that tuple is its own orbit's least sorted rescale, the
    second form.

    Raises ``strata.BudgetExceeded`` when 2m, the entries of the pair,
    exceeds 10^6.
    """
    _check_family(p, m)
    if m == 1:
        return None
    within_budget(2 * m, _WITNESS_BUDGET, "witness entries")
    ones = (1,) * (m - 1)
    return ones + (1,), ones + (2,)


def example2_type(p, m):
    """Admissible tuple of the fiber-product family:
    (g, p; (p-1)(m-1), mp, 0) with g = (p-1)(2mp - p - 1).

    The topological conclusions need m >= 4; smaller m still yields a
    well-defined admissible tuple, outside the family's theorem.
    """
    _check_family(p, m)
    g = (p - 1) * (2 * m * p - p - 1)
    return AdmissibleTuple(g, p, (p - 1) * (m - 1), m * p, 0)


def _cover_genus(degree, k, p):
    # a Galois cover of P^1 branched at k points, each with a stabiliser of
    # order p: chi = degree * (2 - k) + k * degree / p
    chi = degree * (2 - k) + k * degree // p
    return 1 - chi // 2


def riemann_hurwitz(p, m):
    """(g, fixed points of sigma1, genus of S/<sigma1>) for the family's
    curve S, from its branch data alone.

    S -> P^1 is the Z_p^2 cover branched at the 4m points a_{j,d}, b_{j,d},
    each with a stabiliser of order p; sigma1 fixes the p points with
    y1 = 0 over each of the 2m a-points; S/<sigma1> is the p-gonal curve
    y2^p = ..., branched at the 2m b-points.
    """
    _check_family(p, m)
    return _cover_genus(p * p, 4 * m, p), 2 * m * p, _cover_genus(p, 2 * m, p)
