"""Exact multivariate polynomials over the d*N single-particle variables.

A system of N particles in d dimensions uses one variable per
(coordinate, particle) pair.  Exponent vectors are flat tuples of
length d*N laid out coordinate-major, particle-minor: slot c*N + i
holds the exponent of coordinate c for particle i.  The global
monomial order is plain lexicographic comparison of those tuples,
which makes Python's tuple ordering the term order.

Coefficients are arbitrary-precision integers.  The zero polynomial
has an empty term map; zero coefficients are never stored.

An antisymmetric polynomial is a sum of Slater determinants Alt(rows),
one per set of n distinct d-tuples, so it is also held as its Slater
coefficients {rows ascending: coefficient}.  antisymmetrize and
MPoly.is_antisymmetric go through the converter pair slater_coefficients /
slater_to_poly; slater_normalized and slater_times_elementary (e_j times a
sum on interned set ids, for the decomposition) work on the coefficients;
_alternation_table is the one expansion table, shared by slater_to_poly and
the shapes.json writer and loader.

The decomposition keys sets by integer id through one occupation-set table
per process (_sets, _ids, _images): intern_sets and slater_times_elementary
add to it and nothing removes from it, so it lives as long as the process
and only grows, with the sets and images of every (n, d) met so far.  Its
sets hold one object per distinct row, from _rows, which source_slater and
shiftops.apply_symword_slater also take their rows from.  A (4,3) grade-12
decomposition leaves about 34k sets, 17k images and 158 rows in it, about
8 MB of objects, and peaks at 138 MB.  The table is not locked: use it
from one thread at a time.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Callable, Iterable, Mapping, Sequence

COORD_LETTERS = "tuvwxyzabcdefghijklmnopqrs"


class DimensionMismatchError(ValueError):
    """Operands live over different (n, d) variable sets."""


class OddDimensionRequiredError(ValueError):
    """The requested construction only exists in odd dimension."""


def coord_name(c: int) -> str:
    if c >= len(COORD_LETTERS):
        raise ValueError(f"no letter for coordinate {c}")
    return COORD_LETTERS[c]


class MPoly:
    """Sparse integer polynomial over the d*N particle variables."""

    __slots__ = ("n", "d", "terms")

    def __init__(self, n: int, d: int, terms: Mapping[tuple, int] | None = None):
        if n < 0 or d < 1:
            raise ValueError(f"bad dimensions n={n} d={d}")
        self.n = n
        self.d = d
        self.terms: dict[tuple, int] = dict(terms) if terms else {}

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n: int, d: int) -> "MPoly":
        return cls(n, d)

    @classmethod
    def const(cls, n: int, d: int, value: int) -> "MPoly":
        p = cls(n, d)
        if value:
            p.terms[(0,) * (n * d)] = value
        return p

    @classmethod
    def variable(cls, n: int, d: int, c: int, i: int, power: int = 1) -> "MPoly":
        """The single variable x_{c,i} raised to a power."""
        if not (0 <= c < d and 0 <= i < n):
            raise ValueError(f"variable ({c},{i}) outside d={d} n={n}")
        exp = [0] * (n * d)
        exp[c * n + i] = power
        return cls(n, d, {tuple(exp): 1})

    @classmethod
    def from_terms(cls, n: int, d: int, pairs: Iterable[tuple[tuple, int]]) -> "MPoly":
        """Build from (monomial, coefficient) pairs, merging duplicates."""
        p = cls(n, d)
        t = p.terms
        for mono, coeff in pairs:
            if len(mono) != n * d:
                raise DimensionMismatchError("monomial length mismatch")
            new = t.get(mono, 0) + coeff
            if new:
                t[mono] = new
            else:
                t.pop(mono, None)
        return p

    # -- basic structure -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MPoly)
            and self.n == other.n
            and self.d == other.d
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"MPoly(n={self.n}, d={self.d}, {len(self.terms)} terms)"

    def _check_same_space(self, other: "MPoly"):
        if self.n != other.n or self.d != other.d:
            raise DimensionMismatchError(
                f"(n={self.n},d={self.d}) vs (n={other.n},d={other.d})"
            )

    def grade(self) -> int | None:
        """Total degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        grades = {sum(m) for m in self.terms}
        return len(grades) <= 1

    def leading_monomial(self) -> tuple:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms)

    def leading_coeff(self) -> int:
        return self.terms[self.leading_monomial()]

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check_same_space(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            new = out.get(m, 0) + c
            if new:
                out[m] = new
            else:
                del out[m]
        return MPoly(self.n, self.d, out)

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __neg__(self) -> "MPoly":
        return MPoly(self.n, self.d, {m: -c for m, c in self.terms.items()})

    def scale(self, k: int) -> "MPoly":
        if k == 0:
            return MPoly(self.n, self.d)
        return MPoly(self.n, self.d, {m: c * k for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_same_space(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[tuple, int] = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                key = tuple(x + y for x, y in zip(ma, mb))
                new = out.get(key, 0) + ca * cb
                if new:
                    out[key] = new
                else:
                    del out[key]
        return MPoly(self.n, self.d, out)

    __rmul__ = __mul__

    # -- symmetry --------------------------------------------------------

    def permute_particles(self, sigma: Sequence[int]) -> "MPoly":
        """Relabel particle i as sigma[i] in every coordinate simultaneously."""
        n, d = self.n, self.d
        if sorted(sigma) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {sigma}")
        out = {}
        for m, c in self.terms.items():
            new = [0] * (n * d)
            for ci in range(d):
                base = ci * n
                for i in range(n):
                    new[base + sigma[i]] = m[base + i]
            out[tuple(new)] = c
        return MPoly(n, d, out)

    def is_antisymmetric(self) -> bool:
        """True iff every particle permutation multiplies self by its sign,
        that is, iff slater_coefficients accepts self (monomial reference;
        the package itself calls slater_coefficients)."""
        try:
            slater_coefficients(self)
        except ValueError:
            return False
        return True

    # -- normalization ---------------------------------------------------

    def content(self) -> int:
        """gcd of all coefficients; 0 for the zero polynomial."""
        g = 0
        for c in self.terms.values():
            g = math.gcd(g, c)
            if g == 1:
                break
        return g

    def normalized(self) -> tuple["MPoly", int, int]:
        """Split into (primitive positive-leading polynomial, content, sign)
        with self == sign * content * primitive: the monomial reference for
        slater_normalized."""
        if not self.terms:
            raise ValueError("cannot normalize the zero polynomial")
        cont = self.content()
        sign = 1 if self.leading_coeff() > 0 else -1
        div = cont * sign
        prim = MPoly(self.n, self.d, {m: c // div for m, c in self.terms.items()})
        return prim, cont, sign

    # -- rendering -------------------------------------------------------

    def canonical_str(self) -> str:
        """Terms in descending global monomial order as '+c·t1^a u2^b ...'."""
        if not self.terms:
            return "0"
        n = self.n
        chunks = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            body = " ".join(
                coord_name(idx // n) + str(idx % n + 1) + (f"^{e}" if e > 1 else "")
                for idx, e in enumerate(m)
                if e
            )
            head = ("+" if c > 0 else "-") + str(abs(c))
            chunks.append(head + "·" + body if body else head)
        return " ".join(chunks)


# -- classical constructions ----------------------------------------------

def vandermonde(c: int, n: int, d: int) -> MPoly:
    """Product of (x_{c,i} - x_{c,j}) over particle pairs i < j."""
    if not 0 <= c < d:
        raise ValueError(f"coordinate {c} outside d={d}")
    p = MPoly.const(n, d, 1)
    for i in range(n):
        for j in range(i + 1, n):
            p = p * (MPoly.variable(n, d, c, i) - MPoly.variable(n, d, c, j))
    return p


def source_shape(n: int, d: int) -> MPoly:
    """Product of one Vandermonde factor per coordinate: the unique
    top-grade generator.  Antisymmetric only when d is odd."""
    if d % 2 == 0:
        raise OddDimensionRequiredError(f"source shape needs odd d, got {d}")
    p = MPoly.const(n, d, 1)
    for c in range(d):
        p = p * vandermonde(c, n, d)
    return p


def source_slater(n: int, d: int) -> dict[tuple, int]:
    """slater_coefficients(source_shape(n, d)), built without expanding it.

    The Vandermonde factor of one coordinate is sum over permutations
    sigma of sgn(sigma) * sgn(rho) * prod_i x_i^sigma(i), rho the reversal
    (its leading monomial x_0^(n-1) x_1^(n-2) ...).  A set's rows ascend
    when coordinate 0 gives particle i the exponent i, and each other
    coordinate c is a free permutation sigma_c, so the set has the
    coefficient sgn(rho)^d * prod_c sgn(sigma_c), and d is odd."""
    if d % 2 == 0:
        raise OddDimensionRequiredError(f"source shape needs odd d, got {d}")
    reversal = -1 if n * (n - 1) // 2 % 2 else 1
    signed = [(sigma, _sort_with_sign(list(sigma)))
              for sigma in itertools.permutations(range(n))]
    out = {}
    for combo in itertools.product(signed, repeat=d - 1):
        rows = tuple(_rows.setdefault(r, r)
                     for r in zip(range(n), *(sigma for sigma, _ in combo)))
        out[rows] = reversal * math.prod(sign for _, sign in combo)
    return out


def elementary_symmetric(c: int, j: int, n: int, d: int) -> MPoly:
    """Elementary symmetric polynomial e_j in the coordinate-c variables."""
    if not 1 <= j <= n:
        raise ValueError(f"need 1 <= j <= n, got j={j} n={n}")
    if not 0 <= c < d:
        raise ValueError(f"coordinate {c} outside d={d}")
    out = {}
    base = c * n
    for subset in itertools.combinations(range(n), j):
        exp = [0] * (n * d)
        for i in subset:
            exp[base + i] = 1
        out[tuple(exp)] = 1
    return MPoly(n, d, out)


def antisymmetrize(rows: Sequence[tuple]) -> MPoly:
    """Determinant-style antisymmetrization of a set of occupied d-tuples.

    rows must be pairwise distinct d-tuples; row a assigned to particle
    sigma(a) contributes sign(sigma) * prod_c x_{c,sigma(a)}^{rows[a][c]}.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("need at least one row")
    d = len(rows[0])
    if any(len(r) != d for r in rows):
        raise DimensionMismatchError("rows of unequal length")
    if len(set(rows)) != n:
        raise ValueError("rows must be pairwise distinct")
    ordered = list(rows)
    sign = _sort_with_sign(ordered)
    return slater_to_poly({tuple(ordered): sign}, n, d)


def slater_coefficients(p: MPoly) -> dict[tuple, int]:
    """Coordinates of an antisymmetric p over the Slater determinants.

    Returns {rows ascending: coefficient} with p == sum(coefficient *
    antisymmetrize(rows)); the coefficient is that of the monomial whose
    particle rows ascend.  Expanding the result back and comparing it with
    p is the package's one antisymmetry test, a single pass over the terms:
    it raises ValueError unless p is antisymmetric, which also rejects a
    monomial with two equal rows, and a term count other than n! per set
    fails first.  For n <= 1 every polynomial is antisymmetric and nothing
    is expanded.
    """
    n, d = p.n, p.d
    out = {}
    for mono, coeff in p.terms.items():
        rows = tuple(zip(*(mono[c * n:(c + 1) * n] for c in range(d))))
        if all(a < b for a, b in zip(rows, rows[1:])):
            out[rows] = coeff
    if n > 1 and p.terms and (len(p.terms) != len(out) * math.factorial(n)
                              or slater_to_poly(out, n, d) != p):
        raise ValueError("polynomial is not antisymmetric")
    return out


def _leading_key(rows: tuple) -> tuple:
    """The leading monomial of Alt(rows), one tuple per coordinate: it gives
    the particles the rows in descending order.  Sets of n rows compare as
    their flattened exponent vectors would, which are never built.
    (Comparing rows[::-1] as a tuple of rows is a row-major order.)"""
    return tuple(zip(*reversed(rows)))


def slater_normalized(coeffs: Mapping[tuple, int]
                      ) -> tuple[dict[tuple, int], int, int]:
    """MPoly.normalized in Slater coordinates: (primitive coefficients,
    content, sign) of sum(coeff * Alt(rows)), which must be nonzero.

    Every monomial coefficient is plus or minus a Slater coefficient, so
    the content is their gcd.  The leading monomial comes from the set
    with the largest _leading_key; it puts the rows in descending order,
    a permutation of sign (-1)^(n(n-1)/2).
    """
    if not coeffs:
        raise ValueError("cannot normalize the zero polynomial")
    cont = 0
    for c in coeffs.values():
        cont = math.gcd(cont, c)
        if cont == 1:
            break
    lead = max(coeffs, key=_leading_key)
    n = len(lead)
    reversal = -1 if n * (n - 1) // 2 % 2 else 1
    sign = 1 if coeffs[lead] * reversal > 0 else -1
    div = cont * sign
    return {rows: c // div for rows, c in coeffs.items()}, cont, sign


@functools.lru_cache(maxsize=None)
def _alternation_table(n: int, d: int) -> tuple[tuple[Callable, int], ...]:
    """One (gather, sign) pair per permutation sigma of the n particles:
    gather maps the rows' flat coordinate-major exponents (slot c*n + a
    holds row a's coordinate c) to the monomial that gives row a to
    particle sigma[a]."""
    table = []
    for sigma in itertools.permutations(range(n)):
        inverse = [0] * n
        for a, i in enumerate(sigma):
            inverse[i] = a
        slots = [c * n + inverse[i] for c in range(d) for i in range(n)]
        if len(slots) == 1:
            gather = lambda flat: flat
        else:
            gather = operator.itemgetter(*slots)
        table.append((gather, _sort_with_sign(list(sigma))))
    return tuple(table)


def slater_to_poly(coeffs: Mapping[tuple, int], n: int, d: int) -> MPoly:
    """Expand sum(coeff * Alt(rows)) into the particle variables, the
    inverse of slater_coefficients."""
    table = _alternation_table(n, d)
    terms = {}
    for rows, coeff in coeffs.items():
        flat = tuple(itertools.chain.from_iterable(zip(*rows)))
        for gather, sign in table:
            terms[gather(flat)] = sign * coeff
    return MPoly(n, d, terms)


# The process-wide occupation-set table: every set interned so far, by id
# (_sets) and back (_ids), and each set's image under e_j in coordinate c as
# (id, sign) pairs, in _images[c, j][id].  An image is a pure function of
# its set, so no entry is ever stale, and sets of every (n, d) share it.
# _rows maps each row met so far to the one object of it that sets share.
_sets: list[tuple] = []
_ids: dict[tuple, int] = {}
_images: dict[tuple[int, int], dict[int, tuple]] = {}
_rows: dict[tuple, tuple] = {}


def intern_sets(coeffs: Mapping[tuple, int]) -> dict[int, int]:
    """coeffs keyed by set id, for _sets[id] == set and _ids[set] == id.

    A new set's rows are shared through _rows; the set is copied only when
    one of its rows is not the shared object yet."""
    for rows in coeffs:
        if rows not in _ids:
            shared = [_rows.setdefault(r, r) for r in rows]
            if any(map(operator.is_not, shared, rows)):
                rows = tuple(shared)
            _ids[rows] = len(_sets)
            _sets.append(rows)
    return {_ids[rows]: coeff for rows, coeff in coeffs.items()}


def slater_times_elementary(coeffs: Mapping[int, int], c: int, j: int
                            ) -> dict[int, int]:
    """e_j in the coordinate-c variables times sum(coeff * Alt(_sets[i])),
    with coeffs and the result keyed by set ids (intern_sets).

    e_j is symmetric, so it acts on Alt(rows) as the sum over j-subsets of
    rows, each raised by one in coordinate c.  A result with two equal rows
    vanishes; the others are re-sorted and take the sign of that sort.
    Each set's image is worked out once per process, into _images.
    """
    images = _images.setdefault((c, j), {})
    out: dict[int, int] = {}
    for sid, coeff in coeffs.items():
        image = images.get(sid)
        if image is None:
            rows = _sets[sid]
            image = []
            for subset in itertools.combinations(range(len(rows)), j):
                new = list(rows)
                for a in subset:
                    r = new[a]
                    r = r[:c] + (r[c] + 1,) + r[c + 1:]
                    new[a] = _rows.setdefault(r, r)
                sign = _sort_with_sign(new)
                if sign:   # distinct subsets raise to distinct sets
                    new = tuple(new)
                    key = _ids.setdefault(new, len(_sets))
                    if key == len(_sets):
                        _sets.append(new)
                    image.append((key, sign))
            images[sid] = image = tuple(image)   # whole: the table outlives calls
        for new, sign in image:
            v = out.get(new, 0) + sign * coeff
            if v:
                out[new] = v
            else:
                del out[new]
    return out


def _sort_with_sign(rows: list) -> int:
    """Sort rows in place; return the sign of the sorting permutation, or
    0 when two rows are equal."""
    sign = 1
    for i in range(1, len(rows)):
        k = i
        while k and rows[k - 1] >= rows[k]:
            if rows[k - 1] == rows[k]:
                return 0
            rows[k - 1], rows[k] = rows[k], rows[k - 1]
            sign = -sign
            k -= 1
    return sign


def slater_basis(n: int, d: int, grade: int) -> list[tuple]:
    """All n-element sets of pairwise distinct d-tuples with total sum
    equal to grade, each set sorted ascending, listed in lexicographic
    order of the sorted sets.  Cardinality matches the state count."""
    if n < 1 or d < 1 or grade < 0:
        raise ValueError("need n >= 1, d >= 1, grade >= 0")
    tuples = sorted(
        t for t in itertools.product(range(grade + 1), repeat=d) if sum(t) <= grade
    )
    sums = [sum(t) for t in tuples]
    out: list[tuple] = []
    chosen: list[tuple] = []

    def rec(start: int, left: int, budget: int):
        if left == 0:
            if budget == 0:
                out.append(tuple(chosen))
            return
        for j in range(start, len(tuples) - left + 1):
            if sums[j] > budget:
                continue
            chosen.append(tuples[j])
            rec(j + 1, left - 1, budget - sums[j])
            chosen.pop()

    rec(0, n, grade)
    return out
