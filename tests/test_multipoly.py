import itertools
import random

import pytest

from shapeforge.multipoly import (
    DimensionMismatchError,
    MonomialIndex,
    MPoly,
    OddDimensionRequiredError,
    UnindexedMonomialError,
    antisymmetrize,
    coeff_vector,
    elementary_symmetric,
    slater_basis,
    slater_coefficients,
    slater_normalized,
    slater_times_elementary,
    slater_to_poly,
    source_shape,
    vandermonde,
)
from shapeforge.qseries import degree_D, state_count_series


def perm_sign(sigma):
    sign = 1
    for i, j in itertools.combinations(range(len(sigma)), 2):
        if sigma[i] > sigma[j]:
            sign = -sign
    return sign


def random_poly(rng, n, d, max_exp=3, terms=5):
    pairs = []
    for _ in range(terms):
        mono = tuple(rng.randrange(max_exp + 1) for _ in range(n * d))
        pairs.append((mono, rng.randrange(-9, 10)))
    return MPoly.from_terms(n, d, pairs)


# --- arithmetic ---------------------------------------------------------

def test_add_mul_scale_basics():
    x = MPoly.variable(2, 1, 0, 0)  # t1
    y = MPoly.variable(2, 1, 0, 1)  # t2
    p = x - y
    sq = p * p
    assert sq.terms == {(2, 0): 1, (1, 1): -2, (0, 2): 1}
    assert (p + p) == p.scale(2) == 2 * p
    assert (p - p).is_zero()
    assert p.scale(0).is_zero()
    assert (-p).terms == {(1, 0): -1, (0, 1): 1}


def test_mul_merges_and_cancels():
    x = MPoly.variable(2, 1, 0, 0)
    y = MPoly.variable(2, 1, 0, 1)
    assert ((x + y) * (x - y)).terms == {(2, 0): 1, (0, 2): -1}


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        MPoly.variable(2, 1, 0, 0) + MPoly.variable(3, 1, 0, 0)
    with pytest.raises(DimensionMismatchError):
        MPoly.variable(2, 2, 0, 0) * MPoly.variable(2, 1, 0, 0)


def test_mul_grade_additive_on_random_homogeneous():
    rng = random.Random(4217)
    for _ in range(25):
        n, d = rng.choice([(2, 1), (2, 3), (3, 2)])
        a = random_poly(rng, n, d)
        b = random_poly(rng, n, d)
        p = a * b
        if a.is_zero() or b.is_zero():
            assert p.is_zero()
            continue
        assert p.grade() == a.grade() + b.grade()


def test_from_terms_merges_duplicates():
    p = MPoly.from_terms(1, 1, [((2,), 3), ((2,), -3), ((1,), 5)])
    assert p.terms == {(1,): 5}


# --- permutations and antisymmetry ---------------------------------------

def test_permute_particles_moves_labels():
    # t1*u2 under the swap becomes t2*u1
    p = MPoly.variable(2, 2, 0, 0) * MPoly.variable(2, 2, 1, 1)
    q = p.permute_particles([1, 0])
    assert q == MPoly.variable(2, 2, 0, 1) * MPoly.variable(2, 2, 1, 0)


def test_is_antisymmetric_examples():
    t1 = MPoly.variable(2, 1, 0, 0)
    t2 = MPoly.variable(2, 1, 0, 1)
    assert (t1 - t2).is_antisymmetric()
    assert not (t1 + t2).is_antisymmetric()
    # t1 u2 - t2 u1 for N=2, d=2
    p = MPoly.variable(2, 2, 0, 0) * MPoly.variable(2, 2, 1, 1) - MPoly.variable(
        2, 2, 0, 1
    ) * MPoly.variable(2, 2, 1, 0)
    assert p.is_antisymmetric()
    assert MPoly.zero(3, 2).is_antisymmetric()


# --- Vandermonde and the source shape ------------------------------------

def test_vandermonde_against_determinant_oracle():
    # expand det(t_i^{n-1-a}) directly from permutations
    for n in (2, 3, 4):
        v = vandermonde(0, n, 1)
        expected = {}
        for sigma in itertools.permutations(range(n)):
            exp = [0] * n
            for a in range(n):
                exp[sigma[a]] = n - 1 - a
            expected[tuple(exp)] = perm_sign(sigma)
        assert v.terms == expected


def test_vandermonde_antisymmetric_and_graded():
    for n, d in [(2, 3), (3, 3), (4, 3)]:
        v = vandermonde(1, n, d)
        assert v.is_antisymmetric()
        assert v.grade() == n * (n - 1) // 2
        assert v.is_homogeneous()


def test_source_shape_structure():
    s = source_shape(3, 3)
    assert s.grade() == degree_D(3, 3) == 9
    assert s.is_homogeneous()
    assert len(s) == 216
    assert s.is_antisymmetric()
    assert s.leading_coeff() == 1
    assert s.content() == 1


def test_source_shape_n4_antisymmetric():
    s = source_shape(4, 3)
    assert s.grade() == degree_D(3, 4) == 18
    assert len(s) == 24 ** 3
    assert s.is_antisymmetric()


def test_source_shape_rejects_even_d():
    with pytest.raises(OddDimensionRequiredError):
        source_shape(3, 2)


def test_source_shape_n1_is_constant():
    assert source_shape(1, 3) == MPoly.const(1, 3, 1)


def test_even_d_vandermonde_product_is_symmetric_under_swap():
    # two coordinates: the product of two Vandermonde factors picks up
    # sign^2 = +1 under a transposition, hence not antisymmetric
    p = vandermonde(0, 2, 2) * vandermonde(1, 2, 2)
    assert p.permute_particles([1, 0]) == p
    assert not p.is_antisymmetric()


# --- elementary symmetric polynomials ------------------------------------

def test_elementary_symmetric_small():
    e2 = elementary_symmetric(0, 2, 3, 1)
    assert e2.terms == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    e1 = elementary_symmetric(1, 1, 2, 2)
    assert e1.terms == {(0, 0, 1, 0): 1, (0, 0, 0, 1): 1}


def test_elementary_symmetric_invariant_under_permutation():
    rng = random.Random(99)
    for _ in range(10):
        n, d = 4, 2
        c = rng.randrange(d)
        j = rng.randrange(1, n + 1)
        sigma = list(range(n))
        rng.shuffle(sigma)
        e = elementary_symmetric(c, j, n, d)
        assert e.permute_particles(sigma) == e


def test_elementary_symmetric_bad_args():
    with pytest.raises(ValueError):
        elementary_symmetric(0, 0, 3, 1)
    with pytest.raises(ValueError):
        elementary_symmetric(2, 1, 3, 2)


# --- Slater machinery -----------------------------------------------------

def test_antisymmetrize_matches_vandermonde_in_1d():
    got = antisymmetrize(((0,), (1,), (2,)))
    assert got.is_antisymmetric()
    prim, cont, _ = got.normalized()
    vprim, _, _ = vandermonde(0, 3, 1).normalized()
    assert prim == vprim
    assert cont == 1


def test_antisymmetrize_small_2d():
    # rows (0,0) and (1,0): det gives t2 - t1 up to overall sign
    p = antisymmetrize(((0, 0), (1, 0)))
    t1 = MPoly.variable(2, 2, 0, 0)
    t2 = MPoly.variable(2, 2, 0, 1)
    assert p in (t2 - t1, t1 - t2)
    assert p.is_antisymmetric()


def test_antisymmetrize_rejects_duplicates():
    with pytest.raises(ValueError):
        antisymmetrize(((0, 1), (0, 1)))
    with pytest.raises(DimensionMismatchError):
        antisymmetrize(((0, 1), (0,)))


def test_antisymmetrize_random_rows_are_antisymmetric():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.choice([2, 3])
        rows = set()
        while len(rows) < n:
            rows.add(tuple(rng.randrange(4) for _ in range(3)))
        p = antisymmetrize(tuple(sorted(rows)))
        assert p.is_antisymmetric()
        assert p.grade() == sum(map(sum, rows))


def test_slater_basis_frozen_small_case():
    assert slater_basis(3, 3, 2) == [
        ((0, 0, 0), (0, 0, 1), (0, 1, 0)),
        ((0, 0, 0), (0, 0, 1), (1, 0, 0)),
        ((0, 0, 0), (0, 1, 0), (1, 0, 0)),
    ]


def test_slater_basis_counts_match_state_count_series():
    for n in (1, 2, 3):
        top = degree_D(3, n)
        series = state_count_series(n, 3, top)
        for g in range(top + 1):
            assert len(slater_basis(n, 3, g)) == series.coeff(g), (n, g)
    for n in (1, 2, 3, 4):
        top = degree_D(1, n)
        series = state_count_series(n, 1, top)
        for g in range(top + 1):
            assert len(slater_basis(n, 1, g)) == series.coeff(g), (n, g)


def test_slater_basis_deterministic_and_sorted():
    basis = slater_basis(3, 3, 5)
    assert basis == slater_basis(3, 3, 5)
    assert basis == sorted(basis)
    for rows in basis:
        assert list(rows) == sorted(rows)
        assert len(set(rows)) == len(rows)


# --- normalization and rendering ------------------------------------------

def test_normalized_splits_content_and_sign():
    t1 = MPoly.variable(2, 1, 0, 0)
    t2 = MPoly.variable(2, 1, 0, 1)
    p = (t2 - t1).scale(6)
    prim, cont, sign = p.normalized()
    assert cont == 6
    assert sign == -1
    assert prim == t1 - t2
    assert prim.leading_coeff() > 0
    assert prim.scale(cont * sign) == p
    with pytest.raises(ValueError):
        MPoly.zero(2, 1).normalized()


def test_canonical_str():
    t1 = MPoly.variable(2, 3, 0, 0)
    u2 = MPoly.variable(2, 3, 1, 1)
    p = t1 * t1 * u2 - u2.scale(3)
    assert p.canonical_str() == "+1·t1^2 u2 -3·u2"
    assert MPoly.zero(2, 3).canonical_str() == "0"
    assert MPoly.const(2, 3, -4).canonical_str() == "-4"


# --- column registry -------------------------------------------------------

def test_coeff_vector_round_trip():
    rng = random.Random(123)
    for _ in range(10):
        p = random_poly(rng, 2, 2)
        idx = MonomialIndex()
        idx.extend_from(p)
        vec = coeff_vector(p, idx)
        back = MPoly.from_terms(
            2, 2, [(idx.mono_of(col), c) for col, c in vec.items()]
        )
        assert back == p


def test_coeff_vector_requires_registered_monomials():
    p = MPoly.variable(2, 1, 0, 0)
    idx = MonomialIndex()
    with pytest.raises(UnindexedMonomialError):
        coeff_vector(p, idx)


def test_monomial_index_is_stable():
    idx = MonomialIndex()
    a = idx.add((1, 0))
    b = idx.add((0, 1))
    assert idx.add((1, 0)) == a
    assert len(idx) == 2
    assert idx.mono_of(b) == (0, 1)
    assert (1, 0) in idx and (2, 2) not in idx


def test_extend_from_orders_by_monomial_not_history():
    # two polynomials with the same terms built in different orders
    # must register columns identically
    pairs = [((0, 1), 2), ((1, 0), 3)]
    p = MPoly.from_terms(1, 2, pairs)
    q = MPoly.from_terms(1, 2, list(reversed(pairs)))
    ia, ib = MonomialIndex(), MonomialIndex()
    ia.extend_from(p)
    ib.extend_from(q)
    assert list(ia.monomials()) == list(ib.monomials())


def _random_slater_combination(rng, n, d, sets=3):
    coeffs = {}
    while len(coeffs) < sets:
        rows = set()
        while len(rows) < n:
            rows.add(tuple(rng.randrange(3) for _ in range(d)))
        coeffs[tuple(sorted(rows))] = rng.choice((-3, -2, -1, 1, 2, 3))
    return coeffs


def test_slater_coefficients_round_trip_through_antisymmetrize():
    rng = random.Random(11)
    for n, d in ((1, 3), (2, 3), (3, 3), (2, 5), (3, 2)):
        for _ in range(5):
            coeffs = _random_slater_combination(rng, n, d)
            p = MPoly.zero(n, d)
            for rows, c in coeffs.items():
                p = p + antisymmetrize(rows).scale(c)
            assert slater_coefficients(p) == coeffs
    assert slater_coefficients(source_shape(3, 3))
    assert slater_coefficients(MPoly.zero(2, 3)) == {}


def test_slater_times_elementary_matches_product():
    rng = random.Random(12)
    for n, d in ((3, 3), (2, 5)):
        for _ in range(6):
            coeffs = _random_slater_combination(rng, n, d, sets=2)
            p = MPoly.zero(n, d)
            for rows, c in coeffs.items():
                p = p + antisymmetrize(rows).scale(c)
            for c in range(d):
                for j in range(1, n + 1):
                    got = slater_times_elementary(coeffs, c, j)
                    want = elementary_symmetric(c, j, n, d) * p
                    assert got == slater_coefficients(want), (n, d, c, j)
                    # collisions drop out, so nothing but nonzero sets remain
                    assert all(got.values())


def _alt_sum(coeffs, n, d):
    p = MPoly.zero(n, d)
    for rows, c in coeffs.items():
        p = p + antisymmetrize(rows).scale(c)
    return p


def test_slater_to_poly_expands_like_antisymmetrize():
    rng = random.Random(13)
    for n, d in ((1, 1), (1, 3), (2, 1), (2, 3), (3, 3), (4, 3), (2, 5), (3, 2)):
        for _ in range(4):
            coeffs = _random_slater_combination(rng, n, d,
                                                sets=1 if n * d == 1 else 3)
            assert slater_to_poly(coeffs, n, d) == _alt_sum(coeffs, n, d)
    assert slater_to_poly({}, 2, 3) == MPoly.zero(2, 3)


def test_slater_normalized_matches_mpoly_normalized():
    # the leading monomial orders sets by their descending rows flattened
    # coordinate-major; as tuples of rows the reversed sets compare the
    # other way round, so a helper that used that order gets the sign wrong
    a, b = ((0, 0), (2, 1)), ((1, 0), (2, 0))
    assert a[::-1] > b[::-1]
    assert antisymmetrize(b).leading_monomial() > \
        antisymmetrize(a).leading_monomial()
    for coeffs in ({a: 2, b: -4}, {a: -2, b: 4}, {a: 6, b: 9}, {a: -5}):
        prim, cont, sign = _alt_sum(coeffs, 2, 2).normalized()
        assert slater_normalized(coeffs) == (slater_coefficients(prim),
                                             cont, sign)
    # n = 2, 3 reverse the rows by an odd permutation, n = 4, 5 by an even one
    rng = random.Random(14)
    for n, d in ((1, 3), (2, 3), (3, 3), (4, 3), (5, 2), (2, 5), (3, 2)):
        for _ in range(8):
            coeffs = _random_slater_combination(rng, n, d,
                                                sets=rng.randrange(1, 4))
            k = rng.choice((1, 2, 6, -3))
            coeffs = {rows: c * k for rows, c in coeffs.items()}
            prim, cont, sign = _alt_sum(coeffs, n, d).normalized()
            assert slater_normalized(coeffs) == (slater_coefficients(prim),
                                                 cont, sign)
    with pytest.raises(ValueError):
        slater_normalized({})
