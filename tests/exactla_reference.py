"""The elimination kernel's reference: SparseIntMatrix with reduce finding
each next pivot column by scanning the candidate for its smallest column,
the order the heap in exactla must reproduce step for step."""

import math

from shapeforge.exactla import SparseIntMatrix, _divide_by_content


class ScanMatrix(SparseIntMatrix):
    """SparseIntMatrix whose reduce takes min(v) at every step."""

    __slots__ = ()

    def reduce(self, vec: dict[int, int]) -> dict[int, int]:
        v = {c: x for c, x in vec.items() if x}
        while v:
            col = min(v)
            row = self._pivots.get(col)
            if row is None:
                break
            a = v[col]
            p = row[col]
            g = math.gcd(p, a)
            pm, am = p // g, a // g
            if pm != 1:
                for c in v:
                    v[c] *= pm
            for c, rc in row.items():
                new = v.get(c, 0) - am * rc
                if new:
                    v[c] = new
                else:
                    v.pop(c, None)
        _divide_by_content(v)
        return v
