"""Grade-counting polynomials and series for N particles in d dimensions.

Everything here is univariate in the grading variable q with integer
coefficients.  The central object is the shape polynomial P_d(N,q): its
q^g coefficient counts the shape-module generators of grade g, and the
full state count factorizes as Z_d(N,q) = Z_E(N,q)^d * P_d(N,q) where
Z_E(N,q) = prod_{k=1..N} 1/(1-q^k).

Both work in place on plain coefficient lists: a term of the shape
polynomial multiplies P_d(N-k) by (1-q^j)^d (_times_one_minus_qk) and
divides it by (1-q^k)^d (_divide_one_minus_qk); the state counts divide
P_d(N) by (1-q^k)^d for each part size k.  QPoly only holds the result.

All arithmetic is exact; the only floating-point output in the package
is the entropy (a logarithm of a coefficient).
"""

from __future__ import annotations

import enum
import functools
import math


class Statistics(enum.Enum):
    FERMION = "fermion"
    BOSON = "boson"


class NoShapeAtGradeError(ValueError):
    """Requested a shape count at a grade whose coefficient is zero."""


class QPoly:
    """Dense polynomial in q with integer coefficients.

    Coefficients are stored ascending with no trailing zeros; the zero
    polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Highest power with a nonzero coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, power: int) -> int:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    def lowest_power(self) -> int:
        """Smallest power with a nonzero coefficient.  Undefined for zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise ValueError("zero polynomial has no lowest power")

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = "q" if mag == 1 else f"{mag}q"
            else:
                body = f"q^{i}" if mag == 1 else f"{mag}q^{i}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)!r})"


class QSeries:
    """Truncated power series in q: coefficients for powers 0..truncation.

    A coefficient past the truncation is unknown, not zero, so asking for
    one raises IndexError.
    """

    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs, truncation: int):
        cs = list(coeffs)[: truncation + 1]
        cs += [0] * (truncation + 1 - len(cs))
        self.coeffs = tuple(cs)
        self.truncation = truncation

    def coeff(self, power: int) -> int:
        if power > self.truncation:
            raise IndexError(f"power {power} beyond truncation {self.truncation}")
        return self.coeffs[power]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QSeries)
            and self.truncation == other.truncation
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return f"QSeries({list(self.coeffs)!r}, truncation={self.truncation})"


def _divide_one_minus_qk(c: list, k: int, times: int = 1) -> None:
    """Divide the power series with coefficients c by (1-q^k)^times in
    place, up to len(c): the quotient's q^i coefficient is c[i] plus the
    quotient's q^(i-k) coefficient."""
    for _ in range(times):
        for i in range(k, len(c)):
            c[i] += c[i - k]


def _times_one_minus_qk(c: list, k: int, times: int = 1) -> None:
    """Multiply the power series with coefficients c by (1-q^k)^times in
    place, up to len(c): the product's q^i coefficient is c[i] minus c's
    q^(i-k) coefficient.  The mirror of _divide_one_minus_qk."""
    for _ in range(times):
        for i in range(len(c) - 1, k - 1, -1):
            c[i] -= c[i - k]


@functools.lru_cache(maxsize=None)
def shape_poly(n: int, d: int, statistics: Statistics = Statistics.FERMION) -> QPoly:
    """Shape polynomial P_d(N,q) from the alternating recursion

        N * P_d(N,q) = sum_{k=1..N} s_k * C(N,k,q)^d * P_d(N-k,q)

    with C(N,k,q) = (1-q^N)...(1-q^(N-k+1)) / (1-q^k), s_k = (-1)^(k+1)
    for fermions and s_k = +1 for bosons, and P_d(0,q) = P_d(1,q) = 1.

    Each term is built in place on a copy of P_d(N-k)'s coefficients:
    multiplied by (1-q^j)^d for j = N-k+1..N, the list growing to hold the
    numerator exactly, then padded to D + d*k + 1 for D = degree_D(d, N)
    and divided by (1-q^k)^d as a series.  The numerator's degree is at
    most D + d*k, so that division is exact just when every coefficient
    past D is zero.  It and the final division by N raise ArithmeticError
    when inexact.  A term takes d*(k+1) passes over at most D + d*k + 1
    coefficients, so P_d(N) costs O(d^2 N^4) additions given the lower ones.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if d < 1:
        raise ValueError("d must be positive")
    if n <= 1:
        return QPoly((1,))
    top = degree_D(d, n)
    acc = [0] * (top + 1)
    # k descending asks for P(0), P(1), ..., P(n-1) in ascending order, so
    # the cache fills bottom-up and the recursion stays two levels deep
    for k in range(n, 0, -1):
        term = list(shape_poly(n - k, d, statistics).coeffs)
        for j in range(n - k + 1, n + 1):
            term += [0] * (d * j)
            _times_one_minus_qk(term, j, d)
        term += [0] * (top + d * k + 1 - len(term))
        _divide_one_minus_qk(term, k, d)
        if any(term[top + 1:]):
            raise ArithmeticError(f"(1-q^{k})^{d} does not divide the numerator")
        sign = -1 if statistics is Statistics.FERMION and k % 2 == 0 else 1
        for i in range(top + 1):
            acc[i] += sign * term[i]
    if any(c % n for c in acc):
        raise ArithmeticError(f"coefficients not divisible by {n}")
    return QPoly([c // n for c in acc])


def degree_D(d: int, n: int) -> int:
    """Top grade d*N(N-1)/2: the degree of the product of d Vandermonde factors."""
    return d * n * (n - 1) // 2


def ground_grade(d: int, n: int) -> int:
    """Lowest grade carrying a fermion shape, read off the shape polynomial."""
    return shape_poly(n, d, Statistics.FERMION).lowest_power()


def min_fill_grade(d: int, n: int) -> int:
    """Independent cross-check for ground_grade: total degree of the densest
    packing of n distinct d-tuples, filled shell by shell (a shell at total
    s holds C(s+d-1, d-1) tuples)."""
    total = 0
    left = n
    s = 0
    while left > 0:
        shell = math.comb(s + d - 1, d - 1)
        take = min(shell, left)
        total += take * s
        left -= take
        s += 1
    return total


def state_count_series(n: int, d: int, truncation: int) -> QSeries:
    """Fermion state count Z_d(N,q) = Z_E(N,q)^d * P_d(N,q), truncated.

    The q^g coefficient counts n-element sets of pairwise distinct
    d-tuples of nonnegative integers with total sum g.  Costs
    O(min(N, truncation) * d * truncation) additions.
    """
    if n < 0 or truncation < 0:
        raise ValueError("n and truncation must be nonnegative")
    c = list(QSeries(shape_poly(n, d, Statistics.FERMION).coeffs,
                     truncation).coeffs)
    for k in range(1, min(n, truncation) + 1):
        _divide_one_minus_qk(c, k, d)
    return QSeries(c, truncation)


def mirror_check(n: int, d: int) -> bool:
    """Odd d only: fermion coefficients over [G, D] must equal the boson
    coefficients over [0, D-G] reversed."""
    if d % 2 == 0:
        raise ValueError("mirror_check applies to odd d")
    ferm = shape_poly(n, d, Statistics.FERMION)
    bos = shape_poly(n, d, Statistics.BOSON)
    top = degree_D(d, n)
    low = ferm.lowest_power()
    if ferm.degree != top or bos.degree != top - low:
        return False
    return all(ferm.coeff(low + i) == bos.coeff(top - low - i) for i in range(top - low + 1))


def palindrome_check(n: int, d: int) -> bool:
    """Even d only: each statistics' coefficient list must read the same
    forwards and backwards across its own support range."""
    if d % 2 != 0:
        raise ValueError("palindrome_check applies to even d")
    for stat in (Statistics.FERMION, Statistics.BOSON):
        p = shape_poly(n, d, stat)
        lo, hi = p.lowest_power(), p.degree
        if any(p.coeff(lo + i) != p.coeff(hi - i) for i in range(hi - lo + 1)):
            return False
    return True


def shape_entropy(n: int, d: int, grade: int) -> float:
    """Natural log of the number of shapes at the given grade.

    The only floating-point quantity in the package.  A zero coefficient
    means no shape exists at that grade and is an error.
    """
    count = shape_poly(n, d, Statistics.FERMION).coeff(grade)
    if count <= 0:
        raise NoShapeAtGradeError(f"no shape at grade {grade} for N={n}, d={d}")
    return math.log(count)
