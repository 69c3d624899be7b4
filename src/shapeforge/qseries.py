"""Grade-counting polynomials and series for N particles in d dimensions.

Everything here is univariate in the grading variable q with integer
coefficients.  The central object is the shape polynomial P_d(N,q): its
q^g coefficient counts the shape-module generators of grade g, and the
full state count factorizes as Z_d(N,q) = Z_E(N,q)^d * P_d(N,q) where
Z_E(N,q) = prod_{k=1..N} 1/(1-q^k).

Both divide a coefficient list by (1-q^k) in place (_divide_one_minus_qk):
each C-quotient of the shape-polynomial recursion once, the state counts
d times for each part size k.

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

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "QPoly":
        return cls((0,) * power + (coeff,))

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

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return QPoly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValueError("negative power")
        result = QPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def exact_div_int(self, k: int) -> "QPoly":
        if any(c % k for c in self.coeffs):
            raise ArithmeticError(f"coefficients not divisible by {k}")
        return QPoly(tuple(c // k for c in self.coeffs))

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


def c_poly(n: int, k: int) -> QPoly:
    """Building-block quotient (1-q^n)...(1-q^(n-k+1)) / (1-q^k).

    Always a polynomial of degree k(2n-k-1)/2; the division is exact.
    The numerator's degree is the quotient's plus k, so the series
    quotient up to that degree is a polynomial exactly when its last k
    coefficients are zero: past the numerator, each repeats the one k below.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k} n={n}")
    num = QPoly.one()
    for j in range(n - k + 1, n + 1):
        num = num * (QPoly.one() - QPoly.monomial(j))
    c = list(num.coeffs)
    _divide_one_minus_qk(c, k)
    if any(c[-k:]):
        raise ArithmeticError(f"(1-q^{k}) does not divide the numerator")
    return QPoly(c[:-k])


@functools.lru_cache(maxsize=None)
def shape_poly(n: int, d: int, statistics: Statistics = Statistics.FERMION) -> QPoly:
    """Shape polynomial P_d(N,q) from the alternating recursion

        N * P_d(N,q) = sum_{k=1..N} s_k * C(N,k,q)^d * P_d(N-k,q)

    with s_k = (-1)^(k+1) for fermions and s_k = +1 for bosons, and
    P_d(0,q) = P_d(1,q) = 1.  Both the C-quotients and the final
    division by N are exact; any remainder is a hard error.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if d < 1:
        raise ValueError("d must be positive")
    if n <= 1:
        return QPoly.one()
    acc = QPoly()
    for k in range(1, n + 1):
        term = c_poly(n, k) ** d * shape_poly(n - k, d, statistics)
        if statistics is Statistics.FERMION and k % 2 == 0:
            acc = acc - term
        else:
            acc = acc + term
    return acc.exact_div_int(n)


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
