"""Incremental exact rank, span membership and reduction over the integers.

Rows are sparse integer vectors (dict column -> nonzero coefficient).
The matrix keeps an echelon of primitive rows, one per pivot column,
where each row's pivot is its smallest occupied column.  Candidates are
reduced fraction-free: v <- (p/g) * v - (a/g) * pivot_row with
g = gcd(p, a), so every intermediate stays an integer, and the residual
is divided by its content once, at the end.

Reduction eliminates the candidate's smallest column again and again.
A pivot row only occupies columns at or after its pivot, so it stops at
the first column without a pivot: no pivot row can clear that column,
and the candidate is known to lie outside the span.  reduce returns that
residual, an integer combination s * vec - sum(c_i * row_i) with s != 0.
The smallest column comes off a heap of the candidate's columns: a row
update pushes each column it creates, only ever past the one it clears,
and a popped column that has cancelled since is skipped.

The echelon also solves a linear system: add one row per equation,
unknowns as columns and the right-hand side in the column past them,
then back-substitute (solve).  engine.express_in_basis works so, one
multidegree block at a time.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush


class SparseIntMatrix:
    """Grow-only echelon of sparse integer rows."""

    __slots__ = ("_pivots",)

    def __init__(self):
        self._pivots: dict[int, dict[int, int]] = {}

    def rank(self) -> int:
        return len(self._pivots)

    def reduce(self, vec: dict[int, int]) -> dict[int, int]:
        """The primitive residual of vec against the echelon (see the
        module docstring); empty exactly when vec lies in the span."""
        v = {c: x for c, x in vec.items() if x}
        heap = sorted(v)   # a sorted list is a heap
        while heap:
            col = heappop(heap)
            a = v.get(col)
            if a is None:   # cancelled since it was pushed
                continue
            row = self._pivots.get(col)
            if row is None:
                break
            p = row[col]
            g = math.gcd(p, a)
            pm, am = p // g, a // g
            if pm != 1:
                for c in v:
                    v[c] *= pm
            for c, rc in row.items():
                old = v.get(c)
                if old is None:
                    v[c] = -am * rc
                    heappush(heap, c)
                elif new := old - am * rc:
                    v[c] = new
                else:
                    del v[c]
        _divide_by_content(v)
        return v

    def try_extend(self, vec: dict[int, int]) -> bool:
        """Reduce vec against the echelon.  If anything survives, commit the
        primitive residual as a new pivot row and return True; return False
        when vec already lies in the span (including the zero vector)."""
        residual = self.reduce(vec)
        if not residual:
            return False
        pivot = min(residual)
        if residual[pivot] < 0:
            residual = {c: -x for c, x in residual.items()}
        self._pivots[pivot] = residual
        return True

    def solve(self, rhs: int) -> tuple[dict[int, int], int]:
        """Back-substitute the echelon's rows as the equations
        sum(row[c] * x_c for c < rhs) == row[rhs].

        Returns (num, den) with x_c == num[c] / den and den > 0, listing
        only the nonzero x_c; a column without a pivot gets x_c = 0.  Pivots
        are solved from the last column back, over one common denominator
        that grows only by what a pivot coefficient fails to divide.
        Raises ValueError if a row pivots at rhs, 0 == row[rhs] != 0: the
        equations are inconsistent."""
        if rhs in self._pivots:
            raise ValueError("inconsistent system")
        num: dict[int, int] = {}
        den = 1
        for p in sorted(self._pivots, reverse=True):
            row = self._pivots[p]
            t = row.get(rhs, 0) * den - sum(a * num[c] for c, a in row.items()
                                            if c in num)
            if not t:
                continue
            # row[p] * x_p == t / den, and row[p] > 0
            g = math.gcd(t, row[p])
            m = row[p] // g
            if m != 1:
                den *= m
                for c in num:
                    num[c] *= m
            num[p] = t // g
        return num, den


def _divide_by_content(v: dict[int, int]):
    g = 0
    for x in v.values():
        g = math.gcd(g, x)
        if g == 1:
            return
    if g > 1:
        for c in v:
            v[c] //= g
