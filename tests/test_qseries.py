import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shapeforge import qseries
from shapeforge.qseries import (
    NoShapeAtGradeError,
    QPoly,
    Statistics,
    _divide_one_minus_qk,
    _times_one_minus_qk,
    degree_D,
    ground_grade,
    min_fill_grade,
    mirror_check,
    palindrome_check,
    shape_entropy,
    shape_poly,
    state_count_series,
)

F = Statistics.FERMION
B = Statistics.BOSON


def brute_partition_count(g, max_part):
    """Oracle: partitions of g into parts <= max_part, by direct recursion."""
    def rec(rest, largest):
        if rest == 0:
            return 1
        return sum(rec(rest - p, p) for p in range(1, min(rest, largest) + 1))
    return rec(g, max_part)


def brute_state_count(n, d, g):
    """Oracle: n-element sets of distinct d-tuples of nonnegative ints summing to g."""
    tuples = sorted(
        (t for t in itertools.product(range(g + 1), repeat=d) if sum(t) <= g),
        key=lambda t: (sum(t), t),
    )
    sums = [sum(t) for t in tuples]

    def rec(i, left, budget):
        if left == 0:
            return 1 if budget == 0 else 0
        total = 0
        for j in range(i, len(tuples) - left + 1):
            if sums[j] > budget:
                break
            total += rec(j + 1, left - 1, budget - sums[j])
        return total

    return rec(0, n, g)


# --- QPoly values -------------------------------------------------------

def test_qpoly_normalizes_trailing_zeros():
    assert QPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert QPoly([0, 0]).is_zero()
    assert QPoly().degree == -1


def test_qpoly_str():
    assert str(QPoly([0, 0, 3, 10])) == "3q^2 + 10q^3"
    assert str(QPoly([1, -1])) == "1 - q"
    assert str(QPoly()) == "0"
    assert str(QPoly([0, 1])) == "q"


# --- (1-q^k) in place ---------------------------------------------------

def test_divide_one_minus_qk_in_place():
    c = [1, 0, 0, -1]           # (1 - q^3) / (1 - q) = 1 + q + q^2
    _divide_one_minus_qk(c, 1)
    assert c == [1, 1, 1, 0]
    c = [1, 1, 0, 0, 0]         # (1 + q) / (1 - q^2): a remainder never dies out
    _divide_one_minus_qk(c, 2)
    assert c == [1, 1, 1, 1, 1]
    c = [1, 0, 0, 0, 0, 0]      # 1 / (1 - q^2)^2
    _divide_one_minus_qk(c, 2, 2)
    assert c == [1, 0, 2, 0, 3, 0]


def test_times_one_minus_qk_in_place():
    c = [1, 1, 1, 0]            # (1 + q + q^2) (1 - q) = 1 - q^3
    _times_one_minus_qk(c, 1)
    assert c == [1, 0, 0, -1]
    c = [1, 0, 0, 0, 0]         # (1 - q^2)^2 = 1 - 2q^2 + q^4
    _times_one_minus_qk(c, 2, 2)
    assert c == [1, 0, -2, 0, 1]
    c = [2, 3]                  # 2 + q - 3q^2, cut off at len(c)
    _times_one_minus_qk(c, 1)
    assert c == [2, 1]
    c = [5, 7]                  # k >= len(c): nothing below q^k moves
    _times_one_minus_qk(c, 2, 3)
    assert c == [5, 7]


@pytest.mark.parametrize("k", range(1, 6))
def test_times_then_divide_restores(k):
    base = [3, -1, 4, 1, -5, 9, 2, -6, 5, 3, -5, 8]
    for times in range(4):
        c = list(base)
        _times_one_minus_qk(c, k, times)
        _divide_one_minus_qk(c, k, times)
        assert c == base, (k, times)


@pytest.mark.parametrize("n", range(1, 9))
def test_c_quotient_identity_and_degree(n):
    # C(n,k) = (1-q^n)...(1-q^(n-k+1)) / (1-q^k), formed as shape_poly forms
    # a term: the numerator grown in place, then divided as a series.  The
    # numerator matches its expansion over subsets of the factors, the
    # quotient is a polynomial of degree k(2n-k-1)/2, and multiplying it
    # back by (1-q^k) gives the numerator again
    for k in range(1, n + 1):
        factors = range(n - k + 1, n + 1)
        num = [1]
        for j in factors:
            num += [0] * j
            _times_one_minus_qk(num, j)
        want = [0] * len(num)
        for size in range(k + 1):
            for subset in itertools.combinations(factors, size):
                want[sum(subset)] += (-1) ** size
        assert num == want, (n, k)
        c = list(num)
        _divide_one_minus_qk(c, k)
        degree = k * (2 * n - k - 1) // 2
        assert len(c) == degree + k + 1
        assert c[degree] and not any(c[degree + 1:]), (n, k)
        _times_one_minus_qk(c, k)
        assert c == num, (n, k)


# --- shape polynomials --------------------------------------------------

def test_shape_poly_golden_n3_d3():
    assert shape_poly(3, 3, F).coeffs == (0, 0, 3, 10, 6, 6, 7, 3, 0, 1)
    assert shape_poly(3, 3, B).coeffs == (1, 0, 3, 7, 6, 6, 10, 3)


def test_shape_poly_small_cases():
    assert shape_poly(0, 3, F) == QPoly([1])
    assert shape_poly(1, 5, F) == QPoly([1])
    assert shape_poly(2, 3, F).coeffs == (0, 3, 0, 1)
    assert shape_poly(2, 2, F).coeffs == (0, 2)
    # d=1 collapses to a single generator: at the top grade for fermions,
    # at grade 0 for bosons
    for n in range(41):
        assert shape_poly(n, 1, F) == QPoly([0] * (n * (n - 1) // 2) + [1]), n
        assert shape_poly(n, 1, B) == QPoly([1]), n


def test_shape_poly_recursion_stays_shallow():
    # P(n) needs P(0..n-1); asked for in ascending order they are cached
    # bottom-up, so a large n cannot exhaust the stack.  Asked top-down,
    # P(24) nests 24 calls and fails under this limit, as P(1200) did under
    # the default one.  P(N) costs O(d^2 N^4) additions given the lower
    # ones, so P(40) at d = 1 takes a fraction of a second
    src = Path(__file__).resolve().parents[1] / "src"
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from shapeforge.qseries import QPoly, shape_poly\n"
         "sys.setrecursionlimit(25)\n"
         "assert shape_poly(24, 1) == QPoly([0] * 276 + [1])\n"
         "assert shape_poly(40, 1) == QPoly([0] * 780 + [1])\n"
         "assert shape_poly(20, 3).coeffs[-1] == 1\n"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True)
    assert probe.returncode == 0, probe.stderr


@pytest.fixture
def cold_shape_poly():
    # a mutant must compute, not read the cache; nothing it leaves is kept
    shape_poly.cache_clear()
    yield
    shape_poly.cache_clear()


def test_shape_poly_rejects_an_inexact_c_quotient(monkeypatch, cold_shape_poly):
    # a division that drops one factor of (1-q^k) leaves a quotient of
    # degree above D, which the check past D must catch
    divide = qseries._divide_one_minus_qk
    monkeypatch.setattr(qseries, "_divide_one_minus_qk",
                        lambda c, k, times=1: divide(c, k, times - 1))
    with pytest.raises(ArithmeticError, match="does not divide"):
        shape_poly(3, 3, F)


def test_shape_poly_rejects_a_remainder_mod_n(monkeypatch, cold_shape_poly):
    # the recursion reading P(0) as 2: every C-quotient stays exact, and
    # the k = N term comes out doubled, so only the division by N sees it
    lower = qseries.shape_poly
    monkeypatch.setattr(qseries, "shape_poly",
                        lambda n, d, s: QPoly([2]) if n == 0 else lower(n, d, s))
    with pytest.raises(ArithmeticError, match="not divisible by 2"):
        lower(2, 1, F)


@pytest.mark.parametrize("d", range(1, 7))
def test_recursion_divisions_exact_up_to_n8(d):
    # shape_poly raises ArithmeticError if any division is inexact
    for n in range(0, 9):
        shape_poly(n, d, F)
        shape_poly(n, d, B)


def test_shape_poly_two_particles_closed_form():
    # P_d(2,q) = ((1+q)^d +- (1-q)^d) / 2: the even binomial terms for
    # bosons, the odd ones for fermions
    for d in range(1, 12):
        even = [math.comb(d, i) * (i % 2 == 0) for i in range(d + 1)]
        odd = [math.comb(d, i) * (i % 2) for i in range(d + 1)]
        assert shape_poly(2, d, B) == QPoly(even), d
        assert shape_poly(2, d, F) == QPoly(odd), d


def test_degree_laws():
    for n in range(0, 7):
        for d in range(1, 6):
            top = degree_D(d, n)
            ferm = shape_poly(n, d, F)
            bos = shape_poly(n, d, B)
            low = ferm.lowest_power() if n >= 1 else 0
            if d % 2 == 1:
                # the top grade holds the source shape alone
                assert ferm.coeff(top) == 1
                assert ferm.degree == top
                assert bos.degree == top - low
            else:
                assert bos.degree == top
                assert ferm.degree == top - low


def test_mirror_and_palindrome():
    for n in range(0, 7):
        for d in range(1, 6):
            if d % 2 == 1:
                assert mirror_check(n, d)
            else:
                assert palindrome_check(n, d)
    with pytest.raises(ValueError):
        mirror_check(3, 2)
    with pytest.raises(ValueError):
        palindrome_check(3, 3)


def test_coefficient_sum_counts_generators():
    for n in range(1, 7):
        for d in range(1, 6):
            expected = math.factorial(n) ** (d - 1)
            assert sum(shape_poly(n, d, F).coeffs) == expected
            assert sum(shape_poly(n, d, B).coeffs) == expected


def test_ground_grade_against_shell_filling():
    assert ground_grade(3, 3) == 2
    assert ground_grade(3, 4) == 3
    for n in range(1, 7):
        for d in range(1, 6):
            assert ground_grade(d, n) == min_fill_grade(d, n)


# --- series -------------------------------------------------------------

def test_state_count_series_d1_against_partition_oracle():
    # n distinct nonnegative integers summing to g are 0, 1, ..., n-1 plus
    # a partition of g - n(n-1)/2 into at most n parts, that is, into parts
    # <= n
    assert state_count_series(2, 1, 5).coeffs == (0, 1, 1, 2, 2, 3)
    for n in (1, 2, 3, 5):
        s = state_count_series(n, 1, 14)
        floor = n * (n - 1) // 2
        for g in range(15):
            expected = brute_partition_count(g - floor, n) if g >= floor else 0
            assert s.coeff(g) == expected


def test_state_count_series_truncation_guard():
    s = state_count_series(3, 1, 4)
    with pytest.raises(IndexError):
        s.coeff(5)


def test_state_count_golden_3838():
    s = state_count_series(3, 3, 9)
    assert s.coeff(9) == 3838
    assert s.coeff(2) == 3
    assert s.coeffs == (0, 0, 3, 19, 63, 180, 443, 978, 1998, 3838)
    for n, truncation in ((3, -1), (-1, 9)):
        with pytest.raises(ValueError):
            state_count_series(n, 3, truncation)


def test_state_count_against_brute_force():
    for n, d in [(1, 1), (2, 1), (2, 2), (3, 2), (2, 3), (4, 1), (3, 3), (4, 2), (4, 3)]:
        s = state_count_series(n, d, 10)
        for g in range(11):
            assert s.coeff(g) == brute_state_count(n, d, g), (n, d, g)


def test_state_count_closed_forms_to_grade_2000():
    # one particle: d-tuples summing to g; two particles on a line: pairs
    # a < b with a + b = g
    for d in range(1, 6):
        s = state_count_series(1, d, 2000)
        assert s.coeffs == tuple(math.comb(g + d - 1, d - 1)
                                 for g in range(2001)), d
    s = state_count_series(2, 1, 2000)
    assert s.coeffs == tuple((g + 1) // 2 for g in range(2001))


# --- entropy ------------------------------------------------------------

def test_shape_entropy_values():
    assert shape_entropy(3, 3, 9) == 0.0
    assert shape_entropy(3, 3, 2) == math.log(3)
    assert shape_entropy(3, 3, 3) == math.log(10)
    with pytest.raises(NoShapeAtGradeError):
        shape_entropy(3, 3, 8)
    with pytest.raises(NoShapeAtGradeError):
        shape_entropy(3, 3, 1)
