import random
from fractions import Fraction

from shapeforge.exactla import SparseIntMatrix


def oracle_rank(rows, ncols):
    """Dense Gaussian elimination over the rationals."""
    mat = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rank = 0
    col = 0
    while col < ncols and rank < len(mat):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] / mat[rank][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def test_first_nonzero_row_extends():
    m = SparseIntMatrix()
    assert m.try_extend({0: 2, 3: -4}) is True
    assert m.rank() == 1


def test_zero_vector_is_in_span():
    m = SparseIntMatrix()
    assert m.try_extend({}) is False
    assert m.try_extend({5: 0}) is False
    assert m.rank() == 0


def test_unit_rows_absorb_any_combination():
    m = SparseIntMatrix()
    assert m.try_extend({0: 1})
    assert m.try_extend({1: 1})
    assert m.try_extend({0: 3, 1: -7}) is False
    assert m.rank() == 2


def test_parallel_rows_do_not_extend():
    m = SparseIntMatrix()
    assert m.try_extend({0: 1, 1: 2})
    assert m.try_extend({0: 2, 1: 4}) is False
    assert m.try_extend({1: 1})
    assert m.rank() == 2


def test_contains_does_not_modify():
    m = SparseIntMatrix()
    m.try_extend({0: 1, 1: 1})
    assert m.contains({0: 2, 1: 2})
    assert not m.contains({0: 1})
    assert m.rank() == 1
    assert m.try_extend({0: 1})
    assert m.rank() == 2


def test_rank_matches_rational_oracle_random():
    rng = random.Random(1234)
    for _ in range(40):
        ncols = rng.randrange(2, 8)
        nrows = rng.randrange(1, 10)
        rows = []
        for _ in range(nrows):
            row = {
                c: rng.randrange(-5, 6)
                for c in range(ncols)
                if rng.random() < 0.6
            }
            rows.append({c: x for c, x in row.items() if x})
        m = SparseIntMatrix()
        for r in rows:
            m.try_extend(dict(r))
        assert m.rank() == oracle_rank(rows, ncols)


def test_rank_insertion_order_invariant():
    rng = random.Random(77)
    for _ in range(20):
        ncols = rng.randrange(3, 7)
        rows = [
            {c: rng.randrange(-4, 5) for c in range(ncols) if rng.random() < 0.5}
            for _ in range(6)
        ]
        rows = [{c: x for c, x in r.items() if x} for r in rows]
        m1, m2 = SparseIntMatrix(), SparseIntMatrix()
        shuffled = rows[:]
        rng.shuffle(shuffled)
        for r in rows:
            m1.try_extend(dict(r))
        for r in shuffled:
            m2.try_extend(dict(r))
        assert m1.rank() == m2.rank()


def test_integer_combinations_are_members():
    rng = random.Random(990)
    for _ in range(20):
        ncols = rng.randrange(3, 8)
        basis = [
            {c: rng.randrange(-4, 5) for c in range(ncols) if rng.random() < 0.7}
            for _ in range(3)
        ]
        basis = [r for r in ({c: x for c, x in b.items() if x} for b in basis) if r]
        m = SparseIntMatrix()
        for r in basis:
            m.try_extend(dict(r))
        combo: dict[int, int] = {}
        for r in basis:
            k = rng.randrange(-3, 4)
            for c, x in r.items():
                combo[c] = combo.get(c, 0) + k * x
        combo = {c: x for c, x in combo.items() if x}
        assert m.try_extend(combo) is False


def test_reduce_with_unit_columns_solves():
    # rows get unit columns past the real ones, so the residual of a
    # member records s * target == sum_r x_r * row_r with x_r = -res[N + r]
    rng = random.Random(4242)
    for _ in range(30):
        ncols = rng.randrange(2, 7)
        rows = [
            {c: rng.randrange(-4, 5) for c in range(ncols) if rng.random() < 0.6}
            for _ in range(rng.randrange(1, 6))
        ]
        rows = [{c: x for c, x in r.items() if x} for r in rows]
        m = SparseIntMatrix()
        for r, row in enumerate(rows):
            m.try_extend({**row, ncols + r: 1})
        target: dict[int, int] = {}
        for row in rows:
            k = rng.randrange(-3, 4)
            for c, x in row.items():
                target[c] = target.get(c, 0) + k * x
        res = m.reduce({**target, ncols + len(rows): 1})
        assert min(res) >= ncols
        s = res[ncols + len(rows)]
        for c in range(ncols):
            built = sum(-res.get(ncols + r, 0) * row.get(c, 0)
                        for r, row in enumerate(rows))
            assert built == s * target.get(c, 0)


def test_big_integer_exactness():
    # values large enough that any float shortcut would lose digits
    big = 10 ** 30
    m = SparseIntMatrix()
    assert m.try_extend({0: big, 1: big + 1})
    assert m.try_extend({0: 2 * big, 1: 2 * big + 2}) is False
    assert m.try_extend({0: 2 * big, 1: 2 * big + 1})
    assert m.rank() == 2


def test_pivot_rows_are_primitive_and_deterministic():
    m1, m2 = SparseIntMatrix(), SparseIntMatrix()
    seq = [{0: 4, 1: 6}, {0: 2, 2: 10}, {1: 3, 2: 9}]
    for r in seq:
        m1.try_extend(dict(r))
        m2.try_extend(dict(r))
    assert m1._pivots == m2._pivots
    for col, row in m1._pivots.items():
        assert min(row) == col
        assert row[col] > 0
        from math import gcd
        g = 0
        for x in row.values():
            g = gcd(g, x)
        assert g == 1
