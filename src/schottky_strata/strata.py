"""Admissible tuples and stratum-level counting.

Everything is indexed by tuples (g, p; t, r, s) with p prime, g >= 2 and

    g = p(t + r + s - 1) + 1 - r,

equivalently g - 1 = p(t + s - 1) + r(p - 1).  All counting here is exact
integer arithmetic; no floats anywhere.
"""

from __future__ import annotations

import math
from collections import namedtuple

__all__ = [
    "AdmissibleTuple",
    "is_prime",
    "is_admissible",
    "enumerate_tuples",
    "count_strata",
    "closed_form_count",
    "dimension",
    "component_bounds",
]


def is_prime(n):
    """Deterministic trial division; inputs here are small."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_int(name, value):
    """Raise ValueError unless ``value`` is an int and not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_prime(p, minimum=2, *, named=False):
    """Raise ValueError unless p is a prime >= minimum; ``named`` quotes p as p=<p>."""
    check_int("p", p)
    if p < minimum or not is_prime(p):
        got = f"p={p}" if named else p
        raise ValueError(f"p must be a prime >= {minimum}, got {got}")


def _validate_gp(g, p):
    check_int("g", g)
    if g < 2:
        raise ValueError(f"genus must be >= 2, got g={g}")
    check_prime(p, named=True)


def _validate_trs(t, r, s):
    for name, value in (("t", t), ("r", r), ("s", s)):
        check_int(name, value)
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def genus(p, t, r, s):
    """The genus p(t+r+s-1) + 1 - r of the type (t, r, s) for the prime p."""
    return p * (t + r + s - 1) + 1 - r


def is_admissible(g, p, t, r, s):
    """True iff g = p(t+r+s-1) + 1 - r.

    Raises ValueError for non-prime p, g < 2 or negative entries;
    returns a plain boolean for well-formed inputs.
    """
    _validate_gp(g, p)
    _validate_trs(t, r, s)
    return g == genus(p, t, r, s)


class AdmissibleTuple(namedtuple("AdmissibleTuple", "g p t r s")):
    """A tuple (g, p; t, r, s) satisfying the defining relation.

    An immutable tuple (g, p, t, r, s) with those field names.
    Construction validates, so instances are admissible by fiat.
    """

    __slots__ = ()

    def __new__(cls, g, p, t, r, s):
        if not is_admissible(g, p, t, r, s):
            raise ValueError(
                f"({g},{p};{t},{r},{s}) is not admissible: g != p(t+r+s-1)+1-r"
            )
        return tuple.__new__(cls, (g, p, t, r, s))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

    # _from_relation((g, p, t, r, s)) skips validation: only for (t, r, s)
    # solved from the relation for a (g, p) that passed _validate_gp
    _from_relation = classmethod(tuple.__new__)

    @property
    def trs(self):
        return (self.t, self.r, self.s)

    def __str__(self):
        return f"({self.g},{self.p};{self.t},{self.r},{self.s})"


def _admissible_totals(g, p):
    """The totals n = t + s that admit a tuple, as a range.

    r = (g - 1 - p(n - 1)) / (p - 1) is a nonnegative integer exactly when
    n = g (mod p - 1) and 0 <= n <= floor((g + p - 1) / p).
    """
    bound = (g + p - 1) // p
    return range(g % (p - 1), bound + 1, p - 1)


def enumerate_tuples(g, p):
    """All admissible (t, r, s) for the given genus and prime, as tuples.

    Each admissible total n = t + s fixes r = (g - 1 - p(n-1)) / (p - 1),
    and r falls as n grows; so running t upwards and, for each t, n
    downwards over the admissible totals yields exactly the solutions,
    already sorted lexicographically by (t, r, s).
    """
    _validate_gp(g, p)
    # (n, r) pairs with n descending, hence r ascending
    totals = [(n, (g - 1 - p * (n - 1)) // (p - 1))
              for n in reversed(_admissible_totals(g, p))]
    make = AdmissibleTuple._from_relation
    found = []
    for t in range(totals[0][0] + 1 if totals else 0):
        for n, r in totals:
            if n < t:
                break
            found.append(make((g, p, t, r, n - t)))
    return found


def count_strata(p, g):
    """Number of admissible tuples for (g, p), in O(1) for every prime.

    Same value as ``len(enumerate_tuples(g, p))`` (asserted in the tests).
    Each admissible total n contributes its n + 1 pairs (t, s), and the
    admissible totals n0, n0 + (p-1), ..., n0 + (k-1)(p-1) form an
    arithmetic progression, so the count is k(n0 + 1) + (p-1)k(k-1)/2.
    """
    _validate_gp(g, p)
    totals = _admissible_totals(g, p)
    k = len(totals)
    return k * (totals.start + 1) + (p - 1) * k * (k - 1) // 2


def closed_form_count(p, g):
    """Closed-form stratum count for p in {2, 3}.

    For p = 2 every pair (t, s) with t + s <= floor((g+1)/2) works.  For
    p = 3 the parity condition "g - 3(t+s) even" filters the pairs, giving
    four cases keyed to the parities of g and of floor((g+2)/3).
    """
    _validate_gp(g, p)
    if p == 2:
        n = (g + 1) // 2
        return (1 + n) * (2 + n) // 2
    if p == 3:
        n = (g + 2) // 3
        if g % 2 == 0:
            if n % 2 == 0:
                return (n + 2) ** 2 // 4
            return (n + 1) ** 2 // 4
        if n % 2 == 0:
            return n * (n + 2) // 4
        return (n + 1) * (n + 3) // 4
    raise ValueError(f"closed form only available for p in {{2, 3}}, got p={p}")


def _multisets(h, r, s):
    """C(r+h-1, r) * C(s+h-1, s): the ways to pick a multiset of size r and
    one of size s from h classes."""
    return math.comb(r + h - 1, r) * math.comb(s + h - 1, s)


def component_bounds(g, p, t, r, s):
    """(M, exact, basis) for the stratum of the tuple (g, p; t, r, s).

    M counts the irreducible components: the index-p normal Schottky
    subgroups of a cyclic-Schottky group of that type, up to geometric
    automorphisms.  M = 1 for p = 2; for odd p it is the number of
    multisets of sizes r and s drawn from the h = (p-1)/2 classes +-c of
    Z_p^*, C(r + h - 1, r) * C(s + h - 1, s), which is 1 for p = 3.

    ``exact`` is the connected-component count where a theorem settles it,
    None otherwise, and ``basis`` names that statement: "theorem_case_1"
    (exact 1) for p <= 3 or r = s = 0; "theorem_case_3" (exact M) when r
    or s is not a multiple of p; "example2_family" (exact 1) for (t, r, s)
    = ((p-1)(m-1), mp, 0) with m >= 4; "upper_only" otherwise.
    """
    m = 1 if p == 2 else _multisets((p - 1) // 2, r, s)
    if p < 5 or r == s == 0:
        return m, 1, "theorem_case_1"
    if r % p or s % p:
        return m, m, "theorem_case_3"
    if _example2_family_member(p, t, r, s):
        return m, 1, "example2_family"
    return m, None, "upper_only"


def dimension(g, p, t, r, s):
    """Complex dimension (3g - 3 - r(p-3)) / p of each irreducible component.

    The quotient is an exact integer for admissible tuples and equals
    3(t + s - 1) + 2r; both forms are computed and cross-asserted.
    """
    num = 3 * g - 3 - r * (p - 3)
    if num % p != 0:
        raise AssertionError(
            f"dimension of ({g},{p};{t},{r},{s}) is not an integer: {num}/{p}"
        )
    dim = num // p
    assert dim == 3 * (t + s - 1) + 2 * r
    return dim


def _example2_family_member(p, t, r, s):
    # (t, r, s) = ((p-1)(m-1), mp, 0) for some m >= 4, p >= 5
    if p < 5 or s != 0 or r == 0 or r % p != 0:
        return False
    m = r // p
    return m >= 4 and t == (p - 1) * (m - 1)
