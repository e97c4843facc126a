"""Closed-form counting formulas, all in integer arithmetic.

Each formula mirrors its displayed form with every reciprocal factorial and
power of two moved into one common denominator: the numerator is summed in
Python ints and `_as_count` divides once, raising unless the quotient is an
exact non-negative integer. The brute-force module provides the matching
oracles.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, factorial, perm
from operator import mul
from typing import Callable, Mapping

from .arrays import (
    SubstructureGamma, SubstructureOmega, _count_A, check_full, classify_columns, is_irreducible,
)
from .exact import BinomialPoly, CycleCountVector, _as_int, double_factorial, multinomial


def _as_count(num: int, den: int, context: str, *args) -> int:
    """num / den for den > 0; raises unless it is an exact non-negative integer.

    The error names ``context.format(*args)``, formatted only when it raises.
    """
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError(
            f"{context.format(*args)}: expected an exact integer, got {num}/{den}"
        )
    if quotient < 0:
        raise ArithmeticError(
            f"{context.format(*args)}: expected a non-negative count, got {quotient}"
        )
    return quotient


def _factorials(n: int) -> list[int]:
    """[0!, 1!, ..., n!]."""
    return list(accumulate(range(1, n + 1), mul, initial=1))


def _falling(n: int, top: int) -> list[int]:
    """[perm(n, 0), perm(n, 1), ..., perm(n, top)] for n >= 0; 0 once t > n."""
    return list(accumulate(range(n, n - top, -1), mul, initial=1))


# ----------------------------------------------------------------------
# Generating series for one- and two-vertex maps
# ----------------------------------------------------------------------


def hz_series(q: int) -> BinomialPoly:
    """Harer-Zagier series for one-vertex maps with q edges.

    Coefficient of C(x, k) is (2q-1)!! * 2^(k-1) * C(q, k-1) for k = 1..q+1.
    """
    if _as_int(q, "parameters") < 1:
        raise ValueError("q must be a positive integer")
    lead = double_factorial(2 * q - 1)
    return BinomialPoly({k: lead * comb(q, k - 1) << (k - 1) for k in range(1, q + 2)})


def gs_series(q1: int, q2: int, s: int) -> BinomialPoly:
    """Goulden-Slofstra series for two-vertex maps with q_i loops and s links.

    Triple sum over k, i <= p1/2 and j <= p2/2 with the bracket
    C(k-1, q1-i) C(k-1, q2-j) - C(k-1, q1+s-i) C(k-1, q2+s-j), each term
    weighted by C(d-i-j, k-1) / (2^(i+j) i! j! (d-i-j)!), so only i + j <= d
    contributes. Over the denominator 2^d d! the reciprocal part of that
    weight is multinomial(i, j, d-i-j) 2^(d-i-j).

    Only the terms that can be non-zero are visited. Write a = q1-i, b = q2-j
    and r = k-1, so that m = d-i-j = a+b+s. The first product needs a, b >= 0
    and r >= max(a, b); the second needs r >= max(a, b) + s; C(m, r) needs
    r <= m. If a or b is negative the first product vanishes, and so does the
    second, as max(a, b) + s > a+b+s = m. So only i <= q1 and j <= q2
    contribute, with r from max(a, b). At r = m the bracket is
    C(m, a) C(m, b) - C(m, b) C(m, a) = 0, since C(m, a+s) = C(m, b) and
    C(m, b+s) = C(m, a), so r stops below m. Every binomial left has
    non-negative arguments, and math.comb is 0 for k > n, so it needs no
    range check.
    """
    q1, q2, s = (_as_int(x, "parameters") for x in (q1, q2, s))
    if s < 1:
        raise ValueError("s must be positive")
    if q1 < 0 or q2 < 0:
        raise ValueError("q1 and q2 must be non-negative")
    p1, p2 = 2 * q1 + s, 2 * q2 + s
    d = q1 + q2 + s
    fact = _factorials(d)
    nums = [0] * (d + 2)
    for i in range(q1 + 1):
        a = q1 - i
        for j in range(q2 + 1):
            b = q2 - j
            m = a + b + s
            weight = fact[d] // (fact[i] * fact[j] * fact[m]) << m
            for r in range(max(a, b), m):  # r = k - 1
                delta = comb(r, a) * comb(r, b) - comb(r, a + s) * comb(r, b + s)
                nums[r + 1] += weight * comb(m, r) * delta
    lead = factorial(p1) * factorial(p2)
    den = fact[d] << d
    return BinomialPoly(
        {
            k: _as_count(lead * nums[k], den, "gs_series coefficient at k={}", k)
            for k in range(1, d + 2)
        }
    )


def gs_series_simplified(q1: int, q2: int, s: int) -> BinomialPoly:
    """Two-sum form of the two-vertex series (the g1 - g2 reduction).

    Sums over t1 <= q1+s and t2 <= q2+s with t1 + t2 <= d, contributing to
    C(x, d-t1-t2+1). Over the denominator 2^d d! q1! q2! (q1+s)! (q2+s)! the
    bracket of reciprocal factorials is a difference of products of falling
    factorials perm(n, t), which are 0 for t > n; they come from four rows
    per call, one per n in q1+s, q2+s, q1, q2. Every factorial taken,
    (d-t1)!, (d-t2)!, the multinomial's and the denominator's, has its
    argument in 0..d, since t1, t2 <= d; they come from one table per call.
    """
    q1, q2, s = (_as_int(x, "parameters") for x in (q1, q2, s))
    if s < 1:
        raise ValueError("s must be positive")
    if q1 < 0 or q2 < 0:
        raise ValueError("q1 and q2 must be non-negative")
    p1, p2 = 2 * q1 + s, 2 * q2 + s
    d = q1 + q2 + s
    fact = _factorials(d)
    long1, short1 = _falling(q1 + s, q1 + s), _falling(q1, q1 + s)
    long2, short2 = _falling(q2 + s, q2 + s), _falling(q2, q2 + s)
    nums = [0] * (d + 2)
    for t1 in range(q1 + s + 1):
        for t2 in range(min(q2 + s, d - t1) + 1):
            bracket = long1[t1] * long2[t2] - short1[t1] * short2[t2]
            if not bracket:
                continue
            m = d - t1 - t2
            multi = fact[d] // (fact[m] * fact[t1] * fact[t2])
            nums[m + 1] += fact[d - t1] * fact[d - t2] * multi * bracket << m
    lead = factorial(p1) * factorial(p2)
    den = fact[d] * fact[q1] * fact[q2] * fact[q1 + s] * fact[q2 + s] << d
    return BinomialPoly(
        {
            k: _as_count(lead * nums[k], den, "gs_series_simplified coefficient at k={}", k)
            for k in range(1, d + 2)
        }
    )


def series_from_surjections(f: Mapping[int, int]) -> BinomialPoly:
    """Series with coefficient f_K at C(x, K), from paired-surjection counts."""
    return BinomialPoly(dict(f))


# ----------------------------------------------------------------------
# Array-count formulas
# ----------------------------------------------------------------------


def vertical_count_formula(K: int, R1: int, R2: int, s: int) -> int:
    """Closed form for the number of proper vertical arrays.

    Once K, R1, R2, s >= 1 every binomial below has non-negative arguments,
    and math.comb is 0 for k > n, so it needs no range check.
    """
    # plain ints skip the checks: canonical_from_vertical calls this once per term
    if not type(K) is type(R1) is type(R2) is type(s) is int:
        K, R1, R2, s = (_as_int(x, "parameters") for x in (K, R1, R2, s))
    if K < 1 or R1 < 1 or R2 < 1 or s < 1:
        raise ValueError("need K, R1, R2, s >= 1")
    n = K - 1
    bracket = comb(n, R1 - 1) * comb(n, R2 - 1) - comb(n, s + R1 - 1) * comb(n, s + R2 - 1)
    if not bracket:  # a zero numerator: the division below could only give 0
        return 0
    num =factorial(s + R1 - 1) * factorial(s + R2 - 1) * comb(s + R1 + R2 - 2, n) * bracket
    return _as_count(
        num, factorial(s + R1 + R2 - 2), "vertical_count_formula({}, {}, {}, {})", K, R1, R2, s
    )


def _substructure_count(g: SubstructureGamma, context: str) -> int:
    """The body of both gamma formulas, from the column tally of ``g``.

    A is ``arrays._count_A`` of the critical columns: the number of columns
    whose two cells both hold a critical vertex. Zero when s <= A, a single
    product when s = A+1, and otherwise
    (s-1)! (first / (s-A) + second / ((s-A)(s-A-1))).
    """
    t = classify_columns(g)
    A = _count_A(g._crit)
    s = g.s
    if s <= A:
        return 0
    first = (t.b2 + t.d2) * (t.atil1 + t.c1 + t.ctil1 + t.d1)
    if s == A + 1:
        return factorial(s - 1) * first
    second = t.b1 * (t.c2 + t.cbar2 + t.ctil2) - t.cbar1 * (t.b2 + t.d2)
    num = factorial(s - 1) * (first * (s - A - 1) + second)
    return _as_count(num, (s - A) * (s - A - 1), context)


def gamma_count_formula(g: SubstructureGamma) -> int:
    """Arrays satisfying an irreducible full substructure.

    A, which ``arrays._count_A`` counts, is the number of columns whose two
    cells both hold a critical vertex; the full condition makes these the
    doubly-unmarked arrow-free columns.
    """
    if g.s < 1:
        raise ValueError("the substructure must carry at least one vertex per row")
    if not is_irreducible(g):
        raise ValueError("substructure must be irreducible")
    if not check_full(g):
        raise ValueError("substructure must satisfy the full condition")
    return _substructure_count(g, "gamma_count_formula")


def gamma_count_formula_noarrows(g: SubstructureGamma) -> int:
    """Arrow-free version of the substructure count; full condition not needed.

    The same body, with the same A: here the columns with no marked cell and
    at least one vertex in each row.
    """
    if g.arrows:
        raise ValueError("this formula needs an empty arrow map")
    if g.s < 1:
        raise ValueError("the substructure must carry at least one vertex per row")
    return _substructure_count(g, "gamma_count_formula_noarrows")


def omega_count_formula(o: SubstructureOmega) -> int:
    """Proper vertical arrays with a fixed balanced occupancy.

    s! times a sum over the number A of doubly-unmarked occupied columns of
    C(F-1, A) s/(s-A) times a multinomial that distributes the remaining
    columns among the three marked patterns. The factor s! s/(s-A) is the
    integer s perm(s, A) (s-A-1)!.

    Only the non-zero terms are summed: C(F-1, A) needs A < F, where F <= s
    counts the occupied columns, and the multinomial's parts K-A-R1, K-A-R2
    and R1+R2-K+A-1 are all non-negative only for
    K+1-R1-R2 <= A <= min(K-R1, K-R2).
    """
    s, K, F, R1, R2 = o.s, o.K, o.F, o.r1, o.r2
    total = 0
    for A in range(max(0, K + 1 - R1 - R2), min(F, K - R1 + 1, K - R2 + 1)):
        spread = multinomial((K - A - R1, K - A - R2, R1 + R2 - K + A - 1))
        total += s * perm(s, A) * factorial(s - A - 1) * comb(F - 1, A) * spread
    return total


def canonical_from_vertical(
    K: int, q1: int, q2: int, s: int, v_source: Callable[[int, int, int, int], int]
) -> int:
    """Canonical-array count assembled from vertical-array counts.

    Sums over the numbers t_i of within-row pairs removed entirely, weighting
    v(K, q1-t1+1, q2-t2+1, s) by the ways of re-inserting those pairs,
    p1! p2! / (2^(t1+t2) t1! t2! (s+q1-t1)! (s+q2-t2)!), here over the
    denominator 2^(q1+q2) (s+q1)! (s+q2)!.
    """
    if not type(K) is type(q1) is type(q2) is type(s) is int:  # as in vertical_count_formula
        K, q1, q2, s = (_as_int(x, "parameters") for x in (K, q1, q2, s))
    if K < 1 or s < 1 or q1 < 0 or q2 < 0:  # as in brute.canonical_array_count_brute
        raise ValueError("need K >= 1, s >= 1, q1, q2 >= 0")
    p1, p2 = 2 * q1 + s, 2 * q2 + s
    # the weight splits as C(s+q1, t1) 2^(q1-t1) times C(s+q2, t2) 2^(q2-t2)
    row2 = [comb(s + q2, t2) << (q2 - t2) for t2 in range(q2 + 1)]
    num = 0
    for t1 in range(q1 + 1):
        inner = 0
        for t2, weight in enumerate(row2):
            inner += weight * v_source(K, q1 - t1 + 1, q2 - t2 + 1, s)
        num += comb(s + q1, t1) * inner << (q1 - t1)
    den = factorial(s + q1) * factorial(s + q2) << (q1 + q2)
    return _as_count(
        factorial(p1) * factorial(p2) * num, den,
        "canonical_from_vertical({}, {}, {}, {})", K, q1, q2, s,
    )


# ----------------------------------------------------------------------
# Genus reindexing
# ----------------------------------------------------------------------


def genus_counts(v: CycleCountVector, n_vertices: int) -> dict[int, int]:
    """Map each face count L with a_L > 0 to its genus (2 - V + E - L) / 2, E = v.d."""
    if n_vertices not in (1, 2):
        raise ValueError("n_vertices must be 1 or 2")
    out: dict[int, int] = {}
    for L in range(1, v.d + 2):
        a = v.a(L)
        if a == 0:
            continue
        twice_genus = 2 - n_vertices + v.d - L
        if twice_genus < 0 or twice_genus % 2 != 0:
            raise ValueError(f"parity violation at L={L}: corrupted cycle counts")
        out[twice_genus // 2] = a
    return out
