"""References for the tests, in the particle variables and independent of
the engine's occupation-set paths: generator monomials expanded into
MPoly, the direct row space of {generator monomial * shape}, and normal
forms of whole polynomials modulo the coinvariant ideal."""

import functools
from typing import Sequence

from shapeforge.engine import ShapeRecord, _CoinvariantReducer, generator_monomials
from shapeforge.exactla import SparseIntMatrix
from shapeforge.multipoly import MPoly, elementary_symmetric


@functools.lru_cache(maxsize=None)
def _generator_expansion(n: int, d: int, gexp: tuple) -> MPoly:
    """Expand a generator monomial into the particle variables."""
    for i, e in enumerate(gexp):
        if e:
            reduced = gexp[:i] + (e - 1,) + gexp[i + 1:]
            c, j = divmod(i, n)
            return _generator_expansion(n, d, reduced) * elementary_symmetric(
                c, j + 1, n, d
            )
    return MPoly.const(n, d, 1)


def module_span_matrix(
    g: int, records: Sequence[ShapeRecord], n: int, d: int
) -> SparseIntMatrix:
    """Exact row space of {generator monomial * shape} at grade g.

    Its rank equals the state count at every grade exactly when the shapes
    span the antisymmetric module.  Feeding rows in descending
    leading-monomial order makes most of them land on fresh pivot columns,
    so the elimination stays cheap.
    """
    recipes = []
    support: set[tuple] = set()
    for rec in records:
        if rec.grade > g:
            continue
        for gexp in generator_monomials(n, d, g - rec.grade):
            prod = _generator_expansion(n, d, gexp) * rec.poly
            support.update(prod.terms)
            recipes.append((prod.leading_monomial(), rec.id, gexp, rec))
    cols = {mono: col for col, mono in enumerate(sorted(support, reverse=True))}
    matrix = SparseIntMatrix()
    recipes.sort(key=lambda r: (cols[r[0]], r[1], r[2]))
    for _, _, gexp, rec in recipes:
        prod = _generator_expansion(n, d, gexp) * rec.poly
        matrix.try_extend({cols[m]: c for m, c in prod.terms.items()})
    return matrix


def normal_form(reducer: _CoinvariantReducer, p: MPoly) -> MPoly:
    """p modulo the coinvariant ideal, through the reducer's per-coordinate
    blocks.  Reduces one coordinate at a time, merging terms after each, so
    terms that meet on a standard block combine before the next one."""
    n = reducer.n
    terms = p.terms
    for c in range(p.d):
        lo, hi = c * n, (c + 1) * n
        out: dict[tuple, int] = {}
        for mono, coeff in terms.items():
            head, tail = mono[:lo], mono[hi:]
            for std, k in reducer.block(mono[lo:hi]):
                key = head + std + tail
                v = out.get(key, 0) + coeff * k
                if v:
                    out[key] = v
                else:
                    del out[key]
        terms = out
    return MPoly(p.n, p.d, terms)


def normal_form_rank(records: Sequence[ShapeRecord], n: int, d: int) -> int:
    """Rank of the records' monomial normal forms modulo the coinvariant
    ideal: the certificate's rank, computed in the particle variables."""
    reducer = _CoinvariantReducer(n)
    cols: dict[tuple, int] = {}
    matrix = SparseIntMatrix()
    for rec in records:
        nf = normal_form(reducer, rec.poly).terms
        for mono in nf:
            cols.setdefault(mono, len(cols))
        matrix.try_extend({cols[m]: c for m, c in nf.items()})
    return matrix.rank()
