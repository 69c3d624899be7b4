import random

import pytest

from shapeforge.multipoly import (
    MPoly,
    antisymmetrize,
    slater_basis,
    slater_coefficients,
    source_shape,
    vandermonde,
)
from shapeforge.shiftops import (
    Letter,
    SymWord,
    Word,
    apply_letter_at,
    apply_symword,
    apply_symword_slater,
    apply_word_at,
    symword,
    word,
    word_from_str,
    word_net_grade,
    word_to_str,
)


def random_antisymmetric(rng, n, d=3):
    """Homogeneous integer combination of antisymmetrized occupation sets."""
    basis = []
    while not basis:
        basis = slater_basis(n, d, rng.randrange(1, 10))
    p = MPoly.zero(n, d)
    for rows in rng.sample(basis, min(len(basis), rng.randrange(1, 4))):
        p = p + antisymmetrize(rows).scale(rng.randrange(-3, 4) or 1)
    return p


def random_word(rng, d):
    letters = []
    for _ in range(rng.randrange(1, 4)):
        step = rng.choice([-3, -2, -1, 1, 2])
        letters.append((rng.randrange(d), step))
    return symword(*letters)


# --- single letters -------------------------------------------------------

def test_letter_raises_and_lowers():
    t1 = MPoly.variable(1, 1, 0, 0)
    up = apply_letter_at(Letter(0, 2), 0, t1)
    assert up == MPoly(1, 1, {(3,): 1})
    down = apply_letter_at(Letter(0, -1), 0, up)
    assert down == MPoly(1, 1, {(2,): 1})


def test_lowering_annihilates_small_exponents():
    t1 = MPoly.variable(1, 1, 0, 0)
    assert apply_letter_at(Letter(0, -2), 0, t1).is_zero()
    one = MPoly.const(1, 1, 1)
    assert apply_letter_at(Letter(0, -1), 0, one).is_zero()


def test_up_down_is_identity_down_up_is_not():
    # up then down leaves the constant alone; down first kills it
    one = MPoly.const(1, 1, 1)
    up_then_down = word((0, -1), (0, 1))   # rightmost applies first
    down_then_up = word((0, 1), (0, -1))
    assert apply_word_at(up_then_down, 0, one) == one
    assert apply_word_at(down_then_up, 0, one).is_zero()


def test_letter_validates_particle_and_coordinate():
    p = MPoly.variable(2, 1, 0, 0)
    with pytest.raises(ValueError):
        apply_letter_at(Letter(0, -1), 2, p)
    with pytest.raises(ValueError):
        apply_letter_at(Letter(1, -1), 0, p)
    with pytest.raises(ValueError):
        apply_letter_at(Letter(0, 0), 0, p)


# --- worked determinant example -------------------------------------------

def test_lowering_third_coordinate_of_two_particle_determinant():
    # det of the two occupied tuples (2,3,1) and (1,2,0):
    #   t1^2 u1^3 v1 * t2 u2^2  -  t2^2 u2^3 v2 * t1 u1^2
    # lowering v at particle 1 keeps only the first term
    n, d = 2, 3

    def occupy(row, particle):
        p = MPoly.const(n, d, 1)
        for c, e in enumerate(row):
            if e:
                p = p * MPoly.variable(n, d, c, particle, e)
        return p

    a, b = (2, 3, 1), (1, 2, 0)
    det = occupy(a, 0) * occupy(b, 1) - occupy(a, 1) * occupy(b, 0)
    got = apply_letter_at(Letter(2, -1), 0, det)
    expected = MPoly(n, d, {(2, 1, 3, 2, 0, 0): 1})
    assert got == expected


# --- symmetrized words -----------------------------------------------------

def test_symmetrized_single_down_annihilates_vandermonde():
    for n in (2, 3, 4):
        v = vandermonde(0, n, 1)
        assert apply_symword(symword((0, -1)), v).is_zero()


def test_symmetrized_single_down_annihilates_source_shape():
    s = source_shape(3, 3)
    for c in range(3):
        assert apply_symword(symword((c, -1)), s).is_zero()


def test_two_coordinate_down_word_on_source_is_a_grade_7_shape():
    s = source_shape(3, 3)
    got = apply_symword(symword((1, -1), (0, -1)), s)
    assert not got.is_zero()
    assert got.is_homogeneous()
    assert got.grade() == 7
    assert got.is_antisymmetric()


def test_branch_path_grade_bookkeeping():
    # chain three words down from the top grade: 9 -> 7 -> 3 -> 2
    s = source_shape(3, 3)
    p = apply_symword(symword((1, -1), (0, -1)), s)
    assert p.grade() == 7
    p = apply_symword(symword((2, -1), (1, -1), (0, -2)), p)
    assert not p.is_zero()
    assert p.grade() == 3
    p = apply_symword(symword((2, 1), (2, -2)), p)
    assert not p.is_zero()
    assert p.grade() == 2
    assert p.is_antisymmetric()


def test_two_particle_down_pair_reaches_single_coordinate_difference():
    # on the N=2 source the u,t double lowering leaves 2*(v1 - v2)
    s = source_shape(2, 3)
    got = apply_symword(symword((1, -1), (0, -1)), s)
    v1 = MPoly.variable(2, 3, 2, 0)
    v2 = MPoly.variable(2, 3, 2, 1)
    assert got == (v1 - v2).scale(2)


def test_symword_linear():
    rng = random.Random(2024)
    for _ in range(20):
        n = rng.choice([2, 3])
        p = random_antisymmetric(rng, n)
        q = random_antisymmetric(rng, n)
        w = random_word(rng, 3)
        lhs = apply_symword(w, p + q)
        rhs = apply_symword(w, p) + apply_symword(w, q)
        assert lhs == rhs


def test_symword_commutes_with_particle_permutations():
    rng = random.Random(5)
    for _ in range(10):
        n = 3
        p = random_antisymmetric(rng, n)
        w = random_word(rng, 3)
        sigma = list(range(n))
        rng.shuffle(sigma)
        assert apply_symword(w, p.permute_particles(sigma)) == apply_symword(
            w, p
        ).permute_particles(sigma)


def test_symword_preserves_antisymmetry_200_random_pairs():
    rng = random.Random(31337)
    for _ in range(200):
        n = rng.choice([2, 3])
        p = random_antisymmetric(rng, n)
        w = random_word(rng, 3)
        image = apply_symword(w, p)
        assert image.is_antisymmetric()
        if not image.is_zero() and not p.is_zero():
            assert image.grade() == p.grade() + w.net_grade()


def test_symword_slater_matches_monomial_action_on_random_words():
    # random words raise and lower in any order, so some images leave the
    # set, some collide with another row and some lower below zero
    rng = random.Random(606)
    zero = 0
    for _ in range(200):
        n = rng.choice([1, 2, 3, 4])
        p = random_antisymmetric(rng, n)
        w = random_word(rng, 3)
        want = slater_coefficients(apply_symword(w, p))
        assert apply_symword_slater(w, slater_coefficients(p)) == want
        zero += not want
    assert zero


# --- net grade and serialization -------------------------------------------

def test_net_grade():
    assert word_net_grade(word((0, 1), (0, -2))) == -1
    assert word_net_grade(symword((2, -1), (1, -1), (0, -2))) == -4
    assert word_net_grade(word((0, 3))) == 3


def test_word_serialization_golden():
    w = word((1, -1), (0, -2))
    assert word_to_str(w) == "u[-1]t[-2]"
    assert word_to_str(SymWord(w)) == "u[-1]t[-2]"
    assert word_from_str("u[-1]t[-2]") == w


def test_word_serialization_round_trip():
    rng = random.Random(88)
    for _ in range(30):
        w = random_word(rng, 4).word
        assert word_from_str(word_to_str(w)) == w


def test_word_from_str_rejects_garbage():
    with pytest.raises(ValueError):
        word_from_str("t[0]")
    with pytest.raises(ValueError):
        word_from_str("")
    with pytest.raises(ValueError):
        word_from_str("t[-1]x")
    with pytest.raises(ValueError):
        word_from_str("T[-1]")
