"""Reference module rank for the tests: the direct row space of
{generator monomial * shape}, independent of the normal-form certificate
in engine.verify_completeness."""

from typing import Sequence

from shapeforge.engine import ShapeRecord, _generator_expansion, generator_monomials
from shapeforge.exactla import SparseIntMatrix


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
