import random
from fractions import Fraction

import pytest

from shapeforge.exactla import SparseIntMatrix

from exactla_reference import ScanMatrix


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
    # span membership is an empty residual
    assert not m.reduce({0: 2, 1: 2})
    assert m.reduce({0: 1})
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


def fraction_solve(equations, nunknowns):
    """Gauss-Jordan over the rationals on [A | b]; the solution of a
    consistent system with full column rank."""
    mat = [[Fraction(a) for a in coeffs] + [Fraction(b)]
           for coeffs, b in equations]
    rank = 0
    for col in range(nunknowns):
        pivot = next(i for i in range(rank, len(mat)) if mat[i][col])
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        mat[rank] = [x / mat[rank][col] for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    assert all(not row[-1] for row in mat[rank:])
    return [mat[c][-1] for c in range(nunknowns)]


def echelon_solve(equations, nunknowns):
    """Forward elimination of the equations with the right-hand side in
    column nunknowns, then back-substitution, as Fractions."""
    m = SparseIntMatrix()
    for coeffs, b in equations:
        m.try_extend({**{c: a for c, a in enumerate(coeffs) if a},
                      nunknowns: b})
    num, den = m.solve(nunknowns)
    assert den > 0 and all(num.values())
    return [Fraction(num.get(c, 0), den) for c in range(nunknowns)]


def integer_equations(rows, x):
    """The equations rows . x == b, each scaled to integers."""
    out = []
    for row in rows:
        b = sum(a * xc for a, xc in zip(row, x))
        out.append(([a * b.denominator for a in row], b.numerator))
    return out


def test_solve_matches_fraction_gauss_on_random_systems():
    rng = random.Random(5150)
    checked = {"square": 0, "overdetermined": 0}
    while min(checked.values()) < 25:
        k = rng.randrange(1, 7)
        kind = rng.choice(list(checked))
        nrows = k if kind == "square" else k + rng.randrange(1, 4)
        rows = [[rng.randrange(-5, 6) if rng.random() < 0.6 else 0
                 for _ in range(k)] for _ in range(nrows)]
        if oracle_rank([dict(enumerate(r)) for r in rows], k) < k:
            continue
        x = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))
             for _ in range(k)]
        equations = integer_equations(rows, x)
        rng.shuffle(equations)
        assert echelon_solve(equations, k) == fraction_solve(equations, k) == x
        checked[kind] += 1


def test_solve_inconsistent_system_raises():
    m = SparseIntMatrix()
    m.try_extend({0: 1, 2: 1})
    m.try_extend({0: 2, 2: 3})     # x0 == 1 and 2 * x0 == 3
    with pytest.raises(ValueError, match="inconsistent"):
        m.solve(2)
    # an equation without unknowns: 0 == 4
    m = SparseIntMatrix()
    m.try_extend({1: 4})
    with pytest.raises(ValueError, match="inconsistent"):
        m.solve(1)
    # a rank-deficient but consistent system does not raise
    m = SparseIntMatrix()
    m.try_extend({0: 1, 1: 1, 2: 2})
    m.try_extend({0: 2, 1: 2, 2: 4})
    assert m.solve(2) == ({0: 2}, 1)


def test_solve_unknowns_without_a_pivot_are_zero():
    # x0 + x1 + x3 == 3 and 2 * x2 == 5: x1 and x3 have no pivot
    m = SparseIntMatrix()
    m.try_extend({0: 1, 1: 1, 3: 1, 4: 3})
    m.try_extend({2: 2, 4: 5})
    num, den = m.solve(4)
    assert (num, den) == ({0: 6, 2: 5}, 2)
    # a homogeneous system has the zero solution
    m = SparseIntMatrix()
    m.try_extend({0: 3, 1: -1})
    assert m.solve(2) == ({}, 1)
    assert SparseIntMatrix().solve(0) == ({}, 1)


def test_solve_big_integer_exactness():
    big = 10 ** 30
    rows = [[big, big + 1, 0], [big + 1, big + 2, 1], [0, 1, big]]
    x = [Fraction(1, 3), Fraction(-2 * big, 7), Fraction(big + 1)]
    equations = integer_equations(rows, x)
    assert echelon_solve(equations, 3) == x
    assert echelon_solve(equations[::-1], 3) == x


def _assert_same_echelon(heap, scan):
    assert heap.rank() == scan.rank()
    # the same rows, pivot for pivot, with their entries in the same order
    assert [(p, list(row.items())) for p, row in heap._pivots.items()] == \
        [(p, list(row.items())) for p, row in scan._pivots.items()]


def test_heap_reduce_matches_the_scan_on_random_systems():
    rng = random.Random(2020)
    for _ in range(150):
        ncols = rng.randrange(2, 14)
        heap, scan = SparseIntMatrix(), ScanMatrix()
        for _ in range(rng.randrange(1, 2 * ncols)):
            if heap.rank() and rng.random() < 0.3:
                # a combination of pivot rows plus a little noise cancels
                # columns on the way down and may fill others in again
                vec = {}
                for row in rng.sample(list(heap._pivots.values()),
                                      min(3, heap.rank())):
                    k = rng.choice((-2, -1, 1, 3))
                    for c, x in row.items():
                        vec[c] = vec.get(c, 0) + k * x
                if rng.random() < 0.5:
                    c = rng.randrange(ncols)
                    vec[c] = vec.get(c, 0) + rng.choice((-1, 1))
            else:
                vec = {c: rng.choice((-3, -2, -1, 1, 2, 5))
                       for c in rng.sample(range(ncols),
                                           rng.randrange(1, ncols + 1))}
            want = scan.reduce(vec)
            got = heap.reduce(vec)
            assert list(got.items()) == list(want.items()), vec
            assert heap.try_extend(vec) == scan.try_extend(vec)
            _assert_same_echelon(heap, scan)
        rhs = ncols - 1
        try:
            want = scan.solve(rhs)
        except ValueError:
            with pytest.raises(ValueError, match="inconsistent"):
                heap.solve(rhs)
        else:
            assert heap.solve(rhs) == want


def test_heap_reduce_skips_a_column_that_cancels_and_fills_again():
    rows = [{0: 1, 2: 1}, {1: 1, 2: 1}, {2: 1, 3: 1}]
    heap, scan = SparseIntMatrix(), ScanMatrix()
    for row in rows:
        assert heap.try_extend(row) and scan.try_extend(row)
    # clearing column 0 cancels column 2 and clearing column 1 fills it
    # again, so column 2 enters the heap twice; the second entry comes off
    # stale, after column 2 is cleared
    vec = {0: 1, 1: 1, 2: 1}
    assert heap.reduce(vec) == scan.reduce(vec) == {3: 1}
    # the same with a column left over that has no pivot
    vec = {0: 1, 1: 1, 2: 1, 4: 2}
    assert list(heap.reduce(vec).items()) == \
        list(scan.reduce(vec).items()) == [(4, 2), (3, 1)]
    _assert_same_echelon(heap, scan)
