"""Exact arithmetic, permutation utilities, and polynomial bases.

Everything in this module is exact: counts are Python ints, and a series
in the binomial basis becomes its face tallies by `BinomialPoly.to_counts`,
in integers with one checked division per coefficient. The only rationals
are the monomial-basis coefficients of `MonomialPoly` (C(x, 2) = x^2/2 -
x/2), built only by `BinomialPoly.to_monomial` and `CycleCountVector.to_poly`
for the benchmark and the tests. No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, prod
from typing import Iterable, Iterator, Sequence, Union


# ----------------------------------------------------------------------
# Elementary exact functions
# ----------------------------------------------------------------------


def double_factorial(m: int) -> int:
    """Odd double factorial: 1*3*...*m for odd m >= 1; 1 for m in {-1, 0}."""
    if m in (-1, 0):
        return 1
    if m < -1 or m % 2 == 0:
        raise ValueError(f"double_factorial needs odd m >= 1 or m in {{-1, 0}}, got {m}")
    return prod(range(1, m + 1, 2))


def binomial(n: int, k: int) -> int:
    """C(n, k) with the zero-outside-range convention: 0 unless 0 <= k <= n."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def multinomial(parts: Iterable[int]) -> int:
    """(sum parts)! / prod(part!); 0 when any part is negative."""
    parts = list(parts)
    if any(p < 0 for p in parts):
        return 0
    result = factorial(sum(parts))
    for p in parts:
        result //= factorial(p)
    return result


def _as_int(x, label: str) -> int:
    """``x`` itself if it is an integer: floats and bools are rejected, not truncated."""
    if type(x) is int:
        return x
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{label} must be integers, got {x!r}")
    return x


_PLAIN_INT = frozenset([int])


def _checked_ints(values: Union[tuple, frozenset], label: str) -> Union[tuple, frozenset]:
    """``values`` itself once every entry passes ``_as_int``.

    The whole value is tested at once; only when some entry is not a plain
    int does ``_as_int`` run per entry, to reject it or accept an int
    subclass.
    """
    if not _PLAIN_INT.issuperset(map(type, values)):
        for x in values:
            _as_int(x, label)
    return values


def cycle_count(perm: Sequence[int]) -> int:
    """Number of disjoint cycles of a permutation given as an image table on 0..n-1."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("cycle_count requires a bijection on 0..n-1")
    seen = bytearray(n)
    count = 0
    for i in range(n):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = 1
                j = perm[j]
    return count


# ----------------------------------------------------------------------
# Pairings and the ground set of a row tuple
# ----------------------------------------------------------------------


def gamma_of_rows(rows: Sequence[int]) -> tuple[int, ...]:
    """Image table of the cycle permutation gamma of a row tuple.

    The ground set lists the rows one after another, and gamma cycles each
    row: element i goes to i + 1, and the last element of a row to its first.
    """
    gamma: list[int] = []
    for p in rows:
        if _as_int(p, "row sizes") < 1:
            raise ValueError(f"row sizes must be positive, got {p}")
        start = len(gamma)
        gamma += [start + (i + 1) % p for i in range(p)]
    return tuple(gamma)


@dataclass(frozen=True)
class Pairing:
    """Fixed-point-free involution on 0..n-1, stored as a partner table.

    partner[partner[i]] == i and partner[i] != i for every i.
    """

    partner: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.partner)
        if n % 2 != 0:
            raise ValueError("pairing needs an even ground size")
        for i, p in enumerate(self.partner):
            if not 0 <= _as_int(p, "partner entries") < n:
                raise ValueError(f"partner[{i}]={p} out of range")
            if p == i:
                raise ValueError(f"fixed point at {i}")
            if self.partner[p] != i:
                raise ValueError(f"not an involution at {i}")

    @property
    def ground_size(self) -> int:
        return len(self.partner)

    def __getitem__(self, i: int) -> int:
        return self.partner[i]

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Yield the pairs (i, partner[i]) with i < partner[i], in order of i."""
        for i, p in enumerate(self.partner):
            if i < p:
                yield (i, p)

    @classmethod
    def _unchecked(cls, partner: tuple[int, ...]) -> "Pairing":
        """A Pairing on a partner table already known to be a fixed-point-free
        involution, built without running the checks of ``__post_init__``.
        Only for tables this package generates itself (the pairing stream)."""
        pairing = object.__new__(cls)
        object.__setattr__(pairing, "partner", partner)
        return pairing

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Pairing":
        pairs = list(pairs)
        n = 2 * len(pairs)
        partner = [-1] * n
        for a, b in pairs:
            a, b = _as_int(a, "pair entries"), _as_int(b, "pair entries")
            if not (0 <= a < n and 0 <= b < n) or partner[a] != -1 or partner[b] != -1:
                raise ValueError(f"bad pair ({a}, {b})")
            partner[a] = b
            partner[b] = a
        return cls(tuple(partner))


@dataclass(frozen=True)
class CycleCountVector:
    """Exact tallies a_L of pairings whose face permutation has L cycles.

    d is the total number of pairs; counts[L-1] holds a_L for L = 1..d+1.
    """

    d: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        _checked_ints((self.d, *self.counts), "d and the counts")
        if self.d < 0:
            raise ValueError(f"d must be non-negative, got {self.d}")
        if len(self.counts) != self.d + 1:
            raise ValueError(f"need d+1 = {self.d + 1} entries, got {len(self.counts)}")
        if min(self.counts) < 0:
            raise ValueError("counts must be non-negative")

    def a(self, L: int) -> int:
        if 1 <= L <= self.d + 1:
            return self.counts[L - 1]
        return 0

    def total(self) -> int:
        return sum(self.counts)

    def tally(self) -> dict[int, int]:
        """The non-zero tallies {L: a_L}, by ascending L."""
        return {L: a for L, a in enumerate(self.counts, start=1) if a}

    def to_poly(self) -> "MonomialPoly":
        """Generating polynomial: coefficient a_L at degree L."""
        return MonomialPoly(self.tally())

    @classmethod
    def from_tally(cls, d: int, tally: dict[int, int]) -> "CycleCountVector":
        """The vector of ``tally`` {L: a_L}; raises on a face count L outside 1..d+1."""
        stray = sorted(L for L in tally if not 1 <= L <= d + 1)
        if stray:
            raise ValueError(f"face counts {stray} outside 1..{d + 1}")
        return cls(d, tuple(tally.get(L, 0) for L in range(1, d + 2)))


# ----------------------------------------------------------------------
# Polynomials in the binomial and monomial bases
# ----------------------------------------------------------------------


@dataclass
class BinomialPoly:
    """Integer combination of binomial-basis terms C(x, k) with k >= 1."""

    coeffs: dict[int, int]

    def __post_init__(self) -> None:
        coeffs = self.coeffs
        # indices and coefficients are tested as whole values; only when one
        # fails does the loop run, to raise on the first bad entry in order
        if not (
            _PLAIN_INT.issuperset(map(type, coeffs))
            and _PLAIN_INT.issuperset(map(type, coeffs.values()))
            and min(coeffs, default=1) >= 1
        ):
            for k, c in coeffs.items():
                if _as_int(k, "binomial-basis indices") < 1:
                    raise ValueError(f"binomial-basis index must be an int >= 1, got {k!r}")
                _as_int(c, "binomial-basis coefficients")
        self.coeffs = {k: c for k, c in coeffs.items() if c}

    def eval(self, x: int) -> int:
        return sum(c * binomial(x, k) for k, c in self.coeffs.items())

    def _numerator(self) -> tuple[list[int], int]:
        """top! times the series in the monomial basis (ascending degree), and top!.

        With A_k = c_k top!/k! for the top index, top! times the series is
        A_0 + x(A_1 + (x-1)(A_2 + ... + (x-top+1) A_top)), since k! C(x, k)
        is the falling factorial x(x-1)...(x-k+1). The integer numerator is
        built from the top index down in one list, one multiply by (x - k)
        per index.
        """
        top = max(self.coeffs, default=0)
        num = [0] * (top + 1)
        num[0] = self.coeffs.get(top, 0)
        weight = 1  # top!/k!
        for k in range(top - 1, -1, -1):
            for deg in range(top - k, 0, -1):
                num[deg] = num[deg - 1] - k * num[deg]
            weight *= k + 1
            num[0] = self.coeffs.get(k, 0) * weight - k * num[0]
        return num, weight

    def to_counts(self, d: int) -> CycleCountVector:
        """The face tallies of d pairs that this series counts as sum a_L x^L.

        Each coefficient of the numerator is divided once by top!. Raises on a
        non-integer coefficient, on a non-zero coefficient outside degrees
        1..d+1 and on a negative one, with the messages of `integer_coeffs`
        and `CycleCountVector.from_tally`.
        """
        num, top_factorial = self._numerator()
        tally = {}
        for deg, n in enumerate(num):
            a, rest = divmod(n, top_factorial)
            if rest:
                g = gcd(n, top_factorial)
                raise ValueError(f"coefficient of degree {deg} is not an integer: "
                                 f"{n // g}/{top_factorial // g}")
            if a:
                tally[deg] = a
        return CycleCountVector.from_tally(d, tally)

    def to_monomial(self) -> "MonomialPoly":
        """Exact expansion into the monomial basis."""
        num, top_factorial = self._numerator()
        return MonomialPoly({deg: Fraction(n, top_factorial) for deg, n in enumerate(num)})


@dataclass
class MonomialPoly:
    """Polynomial in the monomial basis with exact rational coefficients."""

    coeffs: dict[int, Fraction]

    def __post_init__(self) -> None:
        clean = {}
        for deg, c in self.coeffs.items():
            if _as_int(deg, "monomial degrees") < 0:
                raise ValueError(f"degree must be an int >= 0, got {deg!r}")
            if type(c) is not Fraction:
                if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                    raise ValueError(f"monomial coefficients must be ints or Fractions, got {c!r}")
                c = Fraction(c)
            if c != 0:
                clean[deg] = c
        self.coeffs = clean

    def eval(self, x: int) -> Fraction:
        return sum((c * x**deg for deg, c in self.coeffs.items()), Fraction(0))

    def integer_coeffs(self) -> dict[int, int]:
        """Coefficients as ints; raises if any coefficient is not integral."""
        out = {}
        for deg, c in self.coeffs.items():
            if c.denominator != 1:
                raise ValueError(f"coefficient of degree {deg} is not an integer: {c}")
            out[deg] = c.numerator
        return out

