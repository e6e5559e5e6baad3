"""Admissible tuples and stratum-level counting.

Everything is indexed by tuples (g, p; t, r, s) with p prime, g >= 2 and

    g = p(t + r + s - 1) + 1 - r,

equivalently g - 1 = p(t + s - 1) + r(p - 1).  All counting here is exact
integer arithmetic; the only floats bound the digits of an M too long to
write, in ``multiset_log10`` for ``refuse_unwritable``.  ``stratum_rows``
refuses such an M in its own rows, by that bound and then by ``writable``.

Every layer imports it, so outside ``__all__`` it also holds the input
checks, the check record ``check`` and the refusal rule ``within_budget``,
with ``within_budget_of_powers`` for counts too large to form, and
``writable`` for numbers too long to write.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple

__all__ = [
    "AdmissibleTuple",
    "is_prime",
    "is_admissible",
    "enumerate_tuples",
    "tuple_rows",
    "count_strata",
    "closed_form_count",
    "dimension",
    "component_bounds",
    "stratum_rows",
]


# Miller-Rabin with the prime bases up to 41 is proven for every n below
# _MR_BOUND (Sorenson and Webster, Math. Comp. 2017); the bases up to 37
# alone pass the composite 318665857834031151167461
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


@functools.lru_cache(maxsize=1)  # report tests one p for every genus
def is_prime(n):
    """Deterministic Miller-Rabin; ValueError for n >= _MR_BOUND."""
    if n >= _MR_BOUND:
        raise ValueError(f"primality of {n} is not decided: the Miller-Rabin "
                         f"bases 2..41 are proven only below {_MR_BOUND}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d = n - 1
    k = (d & -d).bit_length() - 1  # n - 1 = d * 2^k with d odd
    d >>= k
    return all(pow(b, d, n) == 1
               or any(pow(b, d << i, n) == n - 1 for i in range(k))
               for b in _MR_BASES)


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


def check(name, passed, detail):
    """One named check record {name, pass, detail}, as the CLI prints it."""
    return {"name": name, "pass": bool(passed), "detail": detail}


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration would exceed its configured budget.

    ``required`` is the count, or None when its size alone refused it
    before it was formed; ``digits`` then says how long it is.  A count
    longer than Python writes as text is named by its number of digits.
    """

    def __init__(self, required, budget, what, digits=None):
        self.required = required
        self.budget = budget
        if digits is None:
            try:
                count = str(required)
            except ValueError:  # past sys.get_int_max_str_digits()
                digits = _digits(required)
        if digits is not None:
            count = f"a {digits}-digit number of"
        super().__init__(f"enumeration requires {count} {what}, "
                         f"exceeding budget {budget}")


def within_budget(required, budget, what):
    """Raise BudgetExceeded when ``required`` ``what`` exceed ``budget``."""
    if required > budget:
        raise BudgetExceeded(required, budget, what)


def within_budget_of_powers(terms, budget, what):
    """``within_budget`` for the count sum(prod(b ** e for b, e in term)
    for term in terms), every base b >= 1; returns the count.

    A count whose bit lengths alone put it past the budget and past the
    longest int Python writes as text is refused before any power is
    formed (forming (10^9 + 6)^300000 takes a second); its digits are
    then counted from logarithms.
    """
    limit = sys.get_int_max_str_digits()
    for term in terms:
        bits = 0  # the term is at least 2^bits
        for b, e in term:
            bits += e * (b.bit_length() - 1)
        if limit and bits >= 4 * limit and bits >= budget.bit_length():
            raise BudgetExceeded(None, budget, what, _power_digits(terms))
    required = 0
    for term in terms:
        product = 1
        for b, e in term:
            product *= b ** e
        required += product
    within_budget(required, budget, what)
    return required


def writable(n, what):
    """``n``, refused as bad input when it has more digits than Python
    writes an int as text: sys.get_int_max_str_digits(), which is 0 for no
    limit and otherwise at least 640, so no n below 1e300 is refused.
    ``what`` names n."""
    if n > 1e300:
        limit = sys.get_int_max_str_digits()
        if limit and n >= 10**limit:
            raise ValueError(f"{what} has more than {limit} digits, the "
                             "limit of sys.get_int_max_str_digits() for "
                             "writing an int as text")
    return n


def multiset_log10(h, r, s):
    """A lower bound on log10 C(r+h-1, r) C(s+h-1, s) (M when h = (p-1)/2):
    each block w has C(n, k) >= (n/k)^k, n = w+h-1 >= 2k, k = min(w, h-1)
    < 2^82, so float logs bound it to 1e-13."""
    return sum(k * (math.log10(w + h - 1) - math.log10(k))
               for w in (r, s) if (k := min(w, h - 1)) > 0)


def refuse_unwritable(log10, what):
    """``writable``'s refusal of the number named ``what`` before it is formed
    (which can take seconds), by ``log10``, a lower bound on its log10."""
    limit = sys.get_int_max_str_digits()
    if limit and log10 * (1 - 1e-12) > limit:
        writable(10**limit, what)


def _digits(n):
    """The number of decimal digits of the int n >= 1, not written out."""
    d = (n.bit_length() - 1) * 3010299 // 10**7 + 1  # 0.3010299 < log10 2
    while n >= 10**d:
        d += 1
    return d


def _power_digits(terms):
    """``_digits`` of the count of ``within_budget_of_powers``, from its
    base-10 logarithm, carried to 60 more significant digits than the
    longest exponent has: each rounding errs by less than 1e-50, so the
    floor of the logarithm is exact unless that lies within 1e-30 of an
    integer, as for a power of 10, when the count is formed after all."""
    import decimal
    prec = 60 + max(len(str(abs(e))) for term in terms for _b, e in term)
    with decimal.localcontext(decimal.Context(
            prec=prec, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)):
        logs = [sum(e * decimal.Decimal(b).log10() for b, e in term)
                for term in terms]
        top = max(logs)
        log = top + sum(10 ** (x - top) for x in logs).log10()
    whole, tiny = int(log), decimal.Decimal("1e-30")
    if tiny < log - whole < 1 - tiny:
        return whole + 1
    return _digits(sum(math.prod(b ** e for b, e in term) for term in terms))


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

    def __str__(self):
        return f"({self.g},{self.p};{self.t},{self.r},{self.s})"


def _admissible_totals(g, p):
    """The totals n = t + s that admit a tuple, as a range.

    r = (g - 1 - p(n - 1)) / (p - 1) is a nonnegative integer exactly when
    n = g (mod p - 1) and 0 <= n <= floor((g + p - 1) / p).
    """
    bound = (g + p - 1) // p
    return range(g % (p - 1), bound + 1, p - 1)


def _totals(g, p):
    """(n, r = (g - 1 - p(n-1)) / (p - 1)) for each admissible total n =
    t + s, n descending, so r ascending."""
    return [(n, (g - 1 - p * (n - 1)) // (p - 1))
            for n in reversed(_admissible_totals(g, p))]


def _walk(p, blocks):
    """(t, the blocks of total n >= t) for t = 0..top, t upwards, of
    ``blocks`` (n, ...) in ``_totals`` order: the first (top-t)//(p-1) + 1."""
    top = blocks[0][0] if blocks else -1
    return [(t, blocks[:(top - t) // (p - 1) + 1]) for t in range(top + 1)]


def tuple_rows(g, p):
    """All admissible (g, p, t, r, s) for the given genus and prime, as
    plain tuples sorted by (t, r, s).  Each admissible total n = t + s fixes
    r, and r falls as n grows; so t runs upwards and, for each t, n
    downwards over the admissible totals n >= t.
    """
    _validate_gp(g, p)
    return [(g, p, t, r, n - t)
            for t, block in _walk(p, _totals(g, p)) for n, r in block]


def enumerate_tuples(g, p):
    """``tuple_rows(g, p)`` as AdmissibleTuples, which need no validation."""
    return [tuple.__new__(AdmissibleTuple, row) for row in tuple_rows(g, p)]


def count_strata(p, g):
    """Number of admissible tuples for (g, p), in O(1) for every prime.

    Same value as ``len(enumerate_tuples(g, p))`` (asserted in the tests).
    Each admissible total n contributes its n + 1 pairs (t, s), and the
    admissible totals n0, n0 + (p-1), ..., n0 + (k-1)(p-1) form an
    arithmetic progression, so the count is k(n0 + 1) + (p-1)k(k-1)/2.
    """
    _validate_gp(g, p)
    totals = _admissible_totals(g, p)
    # len(totals), which raises OverflowError past sys.maxsize totals
    k = max(0, (totals.stop - totals.start - 1) // totals.step + 1)
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
    return (m, *_settled(p, t, r, s, m))


def _settled(p, t, r, s, m):
    """(exact, basis) of component_bounds, for the tuple's M ``m``.  For t
    and s None, the pair of every tuple of that p and r where they settle
    it, with exact M (1 for p < 5), and None where they do not."""
    if p < 5 or r == s == 0:
        return 1, "theorem_case_1"
    if r % p or s is not None and s % p:
        return m, "theorem_case_3"
    if s is None:
        return None
    if _example2_family_member(p, t, r, s):
        return 1, "example2_family"
    return None, "upper_only"


def stratum_rows(g, p):
    """(g, p, t, r, s, M, dimension, exact, basis), the values of
    ``component_bounds`` and ``dimension``, for each admissible tuple in
    ``tuple_rows`` order.  A total n = t + s fixes r, the dimension, M's r
    factor (M = C(r+h-1, r) * C(s+h-1, s)) and the case where r settles it,
    made once per n; the s factor is made once per s, after them all.

    Every row has r + s <= (g + p - 1) / (p - 1) <= g + 1, so M < 2^(r+s+p)
    <= 2^(g+p+1), which no text limit of at least (g + p + 1) / 3 digits
    refuses.  Past that, each n is refused at its first row (t = 0, s = n),
    whose M is its largest, by ``refuse_unwritable`` and then
    ``writable``, before any factor of a smaller n is made.
    """
    _validate_gp(g, p)
    h = max(1, (p - 1) // 2)  # p = 2 draws from one class: M = 1
    limit = sys.get_int_max_str_digits()
    tall = limit and 3 * limit < g + p + 1
    blocks = []  # (n, r, dimension, r factor of M, r's case), n descending
    for n, r in _totals(g, p):
        if tall:
            what = f"M of ({g},{p};0,{r},{n})"
            refuse_unwritable(multiset_log10(h, r, n), what)
            writable(_multisets(h, r, n), what)
        blocks.append((n, r, dimension(g, p, n, r, 0), _multisets(h, r, 0),
                       _settled(p, None, r, None, None)))
    walk = _walk(p, blocks)
    by_s = [_multisets(h, 0, s) for s in range(len(walk))]  # s <= top
    return [(g, p, t, r, s, m, dim, m, decided[1]) if decided
            else (g, p, t, r, s, m, dim, *_settled(p, t, r, s, m))
            for t, block in walk for n, r, dim, mr, decided in block
            for s in (n - t,) for m in (mr * by_s[s],)]


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
