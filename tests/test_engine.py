"""Enumeration engine tests: vocabulary, descent, completeness, and
exact decomposition over the symmetric generators."""

import hashlib
import itertools
import logging
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from shapeforge.engine import (
    EngineConfig,
    GradeStats,
    IncompletenessError,
    _CoinvariantReducer,
    _NormalFormSpan,
    _coordinate_atoms,
    _maximal_rows,
    _multidegree,
    _raised_coordinates,
    _reaches,
    _rising_monomials,
    _surviving_coordinates,
    assemble,
    build_vocabulary,
    enumerate_shapes,
    express_in_basis,
    generator_monomials,
    verify_completeness,
    verify_sign_conflict,
)
from shapeforge import multipoly
from shapeforge.multipoly import (
    DimensionMismatchError,
    MPoly,
    OddDimensionRequiredError,
    antisymmetrize,
    elementary_symmetric,
    intern_sets,
    slater_basis,
    slater_coefficients,
    slater_times_elementary,
    slater_to_poly,
    source_shape,
)
from shapeforge.qseries import (
    Statistics,
    _divide_one_minus_qk,
    degree_D,
    shape_poly,
    state_count_series,
)
from shapeforge.shiftops import (
    SymWord,
    Word,
    apply_symword,
    apply_symword_slater,
    symword,
    word_floor,
    word_to_str,
)

from span_reference import (
    _generator_expansion,
    module_span_matrix,
    normal_form,
    normal_form_rank,
)


# --- vocabulary ------------------------------------------------------------

def test_vocabulary_contains_elementary_and_branch_words():
    words = set(build_vocabulary(3))
    assert symword((0, 1), (0, -2)) in words
    assert symword((1, 1), (1, -2)) in words
    assert symword((2, 1), (2, -2)) in words
    assert symword((1, -1), (0, -1)) in words
    assert symword((2, -1), (1, -1), (0, -2)) in words


def test_vocabulary_bounds():
    config = EngineConfig()
    vocab = build_vocabulary(3, config)
    assert len(vocab) == 136
    for w in vocab:
        letters = w.word.letters
        assert 1 <= len(letters) <= config.max_letters
        assert all(1 <= l.amount <= config.max_amount for l in letters)
        assert -config.max_drop <= w.net_grade() <= -1


def test_vocabulary_ordering_and_determinism():
    vocab = build_vocabulary(3)
    keys = [
        (-w.net_grade(), len(w.word.letters), w.word.letters)
        for w in vocab
    ]
    assert keys == sorted(keys)
    assert build_vocabulary(3) == vocab


def test_vocabulary_one_dimension_single_letters():
    vocab = build_vocabulary(1, EngineConfig(max_letters=1))
    assert [word_to_str(w) for w in vocab] == ["t[-1]", "t[-2]", "t[-3]"]


def test_vocabulary_rejects_bad_args():
    with pytest.raises(ValueError):
        build_vocabulary(0)
    with pytest.raises(ValueError):
        build_vocabulary(3, EngineConfig(max_letters=0))


def _brute_force_vocabulary(d, config):
    """Every atom combination over every coordinate subset, filtered after
    the fact: the definition build_vocabulary prunes its way to."""
    words = []
    for r in range(1, d + 1):
        for coords in itertools.combinations(range(d), r):
            atom_sets = [_coordinate_atoms(c, config) for c in coords]
            for chosen in itertools.product(*atom_sets):
                letters = tuple(
                    l for atom in sorted(chosen, key=lambda a: -a[0].coordinate)
                    for l in atom
                )
                if len(letters) > config.max_letters:
                    continue
                net = sum(l.step for l in letters)
                if not -config.max_drop <= net <= -1:
                    continue
                words.append(SymWord(Word(letters)))
    words.sort(key=lambda w: (-w.net_grade(), len(w.word.letters),
                              w.word.letters))
    return tuple(words)


@pytest.mark.parametrize("config", [
    EngineConfig(),
    EngineConfig(max_letters=1),
    EngineConfig(max_letters=3, max_amount=2, max_drop=3),
    EngineConfig(max_letters=5, max_amount=2, max_drop=6),
    EngineConfig(max_letters=2, max_amount=3, max_drop=2),
])
def test_vocabulary_matches_brute_force(config):
    for d in range(1, 8):
        assert build_vocabulary(d, config) == \
            _brute_force_vocabulary(d, config), d


def test_generator_monomial_counts_match_partition_series():
    # monomials of weighted degree k in e_1..e_n per coordinate are
    # d-fold products of partitions with parts at most n
    n, d = 3, 3
    cube = [1] + [0] * 8        # Z_E(n,q)^d, truncated at q^8
    for k in range(1, n + 1):
        _divide_one_minus_qk(cube, k, d)
    for k in range(7):
        assert len(generator_monomials(n, d, k)) == cube[k]
    assert generator_monomials(2, 1, 0) == [(0, 0)]


# --- descent ----------------------------------------------------------------

def test_enumerate_single_particle():
    for d in (1, 3, 5):
        result = enumerate_shapes(1, d)
        assert len(result.records) == 1
        rec = result.records[0]
        assert rec.grade == 0
        assert rec.poly == MPoly.const(1, d, 1)
        assert len(result.tree.edges) == 0
        assert result.histogram() == {0: 1}


def test_enumerate_one_dimension_two_particles():
    result = enumerate_shapes(2, 1)
    assert len(result.records) == 1
    assert result.records[0].poly == source_shape(2, 1)
    assert result.histogram() == {1: 1}


def test_enumerate_two_particles_golden():
    result = enumerate_shapes(2, 3)
    assert result.histogram() == {3: 1, 1: 3}
    assert len(result.tree.edges) == 3
    diffs = [
        MPoly(2, 3, {(1, 0, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0, 0): -1}),
        MPoly(2, 3, {(0, 0, 1, 0, 0, 0): 1, (0, 0, 0, 1, 0, 0): -1}),
        MPoly(2, 3, {(0, 0, 0, 0, 1, 0): 1, (0, 0, 0, 0, 0, 1): -1}),
    ]
    found = [rec.poly for rec in result.records if rec.grade == 1]
    assert len(found) == 3
    for diff in diffs:
        assert sum(1 for p in found if p == diff) == 1


def test_enumerate_three_particles_golden():
    result = enumerate_shapes(3, 3)
    assert len(result.records) == 36
    assert result.histogram() == {2: 3, 3: 10, 4: 6, 5: 6, 6: 7, 7: 3, 9: 1}
    assert len(result.tree.edges) == 35
    assert result.tree.root == 0
    assert result.records[0].grade == 9
    assert result.records[0].poly == source_shape(3, 3)
    assert set(result.tree.edges) == {rec.id for rec in result.records[1:]}
    assert not any(s.fallback for s in result.report.per_grade.values())
    assert not result.report.annihilation_warnings
    assert result.report.elapsed > 0


def test_record_types_contract():
    result = enumerate_shapes(2, 3)
    rec = result.records[1]
    for obj, name in ((rec, "grade"), (rec.provenance, "sign"),
                      (EngineConfig(), "max_letters"),
                      (result.report, "elapsed"), (result.tree, "edges"),
                      (result.report.per_grade[1], "found")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    moved = rec._replace(grade=rec.grade + 1)
    assert moved.grade == rec.grade + 1
    assert moved[:2] != rec[:2] and moved[2:] == rec[2:]
    assert EngineConfig() == EngineConfig(4, 3, 4, False)
    assert hash(EngineConfig()) == hash(EngineConfig(4, 3, 4, False))
    stats = GradeStats(expected=3, found=2, tried=5)
    assert stats == GradeStats(3, 2, 5)
    assert stats != GradeStats(3, 2, 5, zero=1)
    assert repr(stats) == (
        "GradeStats(expected=3, found=2, tried=5, zero=0, survived=0, "
        "in_span=0, pruned=0, skipped=0, fallback=0)")


def test_enumerate_determinism():
    a = enumerate_shapes(3, 3)
    b = enumerate_shapes(3, 3)
    assert a.records == b.records
    assert a.tree == b.tree
    assert [s for _, s in sorted(a.report.per_grade.items())] == [
        s for _, s in sorted(b.report.per_grade.items())
    ]


def test_descent_candidate_accounting():
    result = enumerate_shapes(3, 3)
    top = degree_D(3, 3)
    for g, s in result.report.per_grade.items():
        assert s.found == s.expected
        from_words = s.found - s.fallback - (1 if g == top else 0)
        assert s.tried == s.zero + s.survived + s.in_span + from_words


def test_accepted_shapes_are_canonical():
    result = enumerate_shapes(3, 3)
    lowerings = [symword((c, -1)) for c in range(3)]
    for rec in result.records:
        assert not rec.poly.is_zero()
        assert rec.poly.is_homogeneous()
        assert rec.poly.grade() == rec.grade
        assert rec.poly.is_antisymmetric()
        prim, content, sign = rec.poly.normalized()
        assert (prim, content, sign) == (rec.poly, 1, 1)
        # each unit lowering kills the shape, checked on the monomials
        # independently of the Slater-coordinate filter the descent runs
        for w in lowerings:
            assert apply_symword(w, rec.poly).is_zero()
        assert rec.slater == slater_coefficients(rec.poly)
        assert list(_surviving_coordinates(rec.slater, lowerings)) == []


@pytest.mark.parametrize("n,d", [(2, 3), (3, 3)])
def test_provenance_replay_bit_exact(n, d):
    result = enumerate_shapes(n, d)
    for rec in result.records:
        pv = rec.provenance
        if pv.kind == "root":
            assert rec.poly == source_shape(n, d)
            assert (pv.content, pv.sign) == (1, 1)
        else:
            assert pv.kind == "word"
            raw = apply_symword(pv.word, result.records[pv.parent].poly)
            assert raw.normalized() == (rec.poly, pv.content, pv.sign)


def _assert_slater_action_matches(records, pairs):
    for rec, w in pairs:
        want = slater_coefficients(apply_symword(w, rec.poly))
        assert apply_symword_slater(w, rec.slater) == want, (rec.id, str(w))


@pytest.mark.parametrize("n,d", [(2, 3), (3, 3)])
def test_symword_slater_matches_apply_symword_on_every_pair(n, d):
    records = enumerate_shapes(n, d).records
    words = build_vocabulary(d)
    # the vocabulary has raise-then-lower atoms, and many pairs give zero
    assert any(l.step > 0 for w in words for l in w.word.letters)
    assert any(apply_symword_slater(w, rec.slater) == {}
               for rec in records for w in words)
    _assert_slater_action_matches(
        records, [(rec, w) for rec in records for w in words])


def test_symword_slater_matches_apply_symword_sampled_two_five():
    rng = random.Random(2025)
    records = enumerate_shapes(2, 5).records
    words = build_vocabulary(5)
    pairs = [(rng.choice(records), rng.choice(words)) for _ in range(400)]
    assert any(any(l.step > 0 for l in w.word.letters) for _, w in pairs)
    _assert_slater_action_matches(records, pairs)


def test_grade_progress_is_logged(caplog):
    with caplog.at_level(logging.INFO, logger="shapeforge.engine"):
        result = enumerate_shapes(2, 3)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "shapeforge.engine"]
    assert len(lines) == len(result.report.per_grade) == 3
    for line, g in zip(lines, (3, 2, 1)):
        s = result.report.per_grade[g]
        assert line.startswith(
            f"grade {g}: found {s.found}/{s.expected}, tried {s.tried}, "
            f"zero {s.zero}, survived {s.survived}, in_span {s.in_span}, ")
        assert f", in_span {s.in_span}, pruned {s.pruned}, " in line
        assert line.endswith("s")
    assert result.report.per_grade[1].pruned == 5


# --- exact pruning -------------------------------------------------------------

def _row_image(w, row):
    """The word applied to one row, rightmost letter first; None if a
    lowering goes below 0."""
    r = list(row)
    for c, step in reversed(w.word.letters):
        r[c] += step
        if r[c] < 0:
            return None
    return tuple(r)


@pytest.fixture(scope="module")
def pruning_pairs():
    """(record, word, annihilated) triples: every pair at (2,3) and (3,3),
    400 seeded pairs at (2,5), and every pair over the records of two
    crippled (3,3) vocabularies, whose oracle fills may survive unit
    lowerings."""
    out = []
    for n, d, config in ((2, 3, EngineConfig()), (3, 3, EngineConfig()),
                         (3, 3, EngineConfig(max_letters=1)),
                         (3, 3, EngineConfig(max_amount=1))):
        result = enumerate_shapes(n, d, config)
        warned = {rid for rid, _ in result.report.annihilation_warnings}
        out += [(rec, w, rec.id not in warned)
                for rec in result.records for w in build_vocabulary(d)]
    rng = random.Random(2025)
    records = enumerate_shapes(2, 5).records
    words = build_vocabulary(5)
    out += [(rng.choice(records), rng.choice(words), True)
            for _ in range(400)]
    return out


def test_word_floor_kills_exactly_the_rows_below_it(pruning_pairs):
    assert word_floor(symword((0, 1), (0, -2), (1, -1)), 3) == (2, 1, 0)
    assert word_floor(symword((0, -1), (0, 2)), 2) == (0, 0)
    for rec, w, _ in pruning_pairs:
        floor = word_floor(w, rec.poly.d)
        rows = {row for occupied in rec.slater for row in occupied}
        for row in rows:
            assert (_row_image(w, row) is None) == \
                any(x < f for x, f in zip(row, floor)), (str(w), row)
        # the maximal rows reach a floor exactly when some row does
        assert _reaches(_maximal_rows(rec.slater), floor) == \
            _reaches(list(rows), floor)


def test_zero_by_reach_matches_word_application(pruning_pairs):
    pruned = 0
    for rec, w, _ in pruning_pairs:
        if not _reaches(_maximal_rows(rec.slater), word_floor(w, rec.poly.d)):
            pruned += 1
            assert apply_symword_slater(w, rec.slater) == {}, (rec.id, str(w))
    assert pruned > len(pruning_pairs) // 2


def test_unit_lowering_commutes_off_the_raised_coordinates(pruning_pairs):
    lowerings = [symword((c, -1)) for c in range(5)]
    violations = 0
    for rec, w, annihilated in pruning_pairs:
        d = rec.poly.d
        raised = _raised_coordinates(w)
        # for a vocabulary word, exactly the coordinates of its
        # raise-then-lower atoms
        assert raised == tuple(sorted(
            a.coordinate for a, b in zip(w.word.letters, w.word.letters[1:])
            if a.coordinate == b.coordinate))
        chi = apply_symword_slater(w, rec.slater)
        survives = set(_surviving_coordinates(rec.slater, lowerings[:d]))
        assert annihilated == (not survives)
        for c in range(d):
            if c in raised or c in survives:
                continue
            assert apply_symword_slater(lowerings[c], chi) == {}, \
                (rec.id, str(w), c)
        if not annihilated:
            violations += any(
                apply_symword_slater(lowerings[c], chi)
                for c in range(d) if c not in raised)
    # negative control: on an oracle fill that survives a unit lowering,
    # testing only the raised coordinates would pass a survivor
    assert violations > 0


@pytest.mark.parametrize("n,d,totals,pruned", [
    (3, 3, (2261, 1854, 153, 219), 1731),
    (2, 5, (1385, 1340, 0, 30), 1340),
])
def test_exhaustive_candidate_totals_are_pinned(n, d, totals, pruned):
    stats = enumerate_shapes(n, d, EngineConfig(exhaustive=True)) \
        .report.per_grade.values()
    assert tuple(sum(getattr(s, k) for s in stats)
                 for k in ("tried", "zero", "survived", "in_span")) == totals
    assert sum(s.pruned for s in stats) == pruned
    assert all(s.pruned <= s.zero for s in stats)


@pytest.mark.parametrize("n,d,config", [
    (3, 3, EngineConfig()),
    (3, 3, EngineConfig(exhaustive=True)),
    (2, 5, EngineConfig(exhaustive=True)),
    (3, 3, EngineConfig(max_letters=1)),
], ids=["3-3", "3-3-exhaustive", "2-5-exhaustive", "3-3-one-letter"])
def test_each_candidate_is_tried_or_skipped(n, d, config):
    # a grade's candidates pair each record above it with each vocabulary
    # word, bar the single unit lowerings, that takes it down to the grade;
    # a grade with no shapes has none
    nets = Counter(w.net_grade() for w in build_vocabulary(d, config)
                   if [x.step for x in w.word.letters] != [-1])
    result = enumerate_shapes(n, d, config)
    for g, s in result.report.per_grade.items():
        eligible = sum(nets[g - rec.grade] for rec in result.records
                       if rec.grade > g) if s.expected else 0
        assert s.tried + s.skipped == eligible, g
        if config.exhaustive:
            assert s.skipped == 0, g
    if config == EngineConfig():
        assert sum(s.skipped for s in result.report.per_grade.values()) > 0


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


@pytest.mark.parametrize("n,d,config,digests", [
    (3, 3, EngineConfig(exhaustive=True),
     ("d42463c1605003f2", "4e0ecd5b5bdbccdf", "76d6256b3964ab3c",
      "c9ad6b86ab2613b5")),
    (2, 5, EngineConfig(exhaustive=True),
     ("7d1461ac2df28603", "2039324275401792", "005278a50be4aa6a",
      "ca61ca4963ed93b5")),
    (2, 7, EngineConfig(),
     ("87cb099c6fbcac8c", "482d58834fc8b056", "4a1f65a161b708a1",
      "4162f81bad22327d")),
    (3, 3, EngineConfig(max_letters=1),
     ("a942c5cf780cd2a5", "ed325b827b29b7ec", "097c9c3845233810",
      "c8c0f4d8a18b7b24")),
    (3, 3, EngineConfig(max_amount=1),
     ("7a072d40b35d5adc", "0dfa211051c810bd", "8fd0f9518bb65176",
      "d897af752ab96fb0")),
    (3, 3, EngineConfig(max_amount=1, exhaustive=True),
     ("7a072d40b35d5adc", "0dfa211051c810bd", "8fd0f9518bb65176",
      "3ab0202d57a819a0")),
], ids=["3-3-exhaustive", "2-5-exhaustive", "2-7", "3-3-one-letter",
        "3-3-amount-1", "3-3-amount-1-exhaustive"])
def test_descent_results_are_pinned(n, d, config, digests):
    # records, tree, every acceptance and every per-grade counter, as they
    # were when the descent accepted by the span of Slater coefficients:
    # accepting by class in the sign coinvariants changes none of them.
    # The third digest is of the acceptances alone; the per-grade counters
    # stand for every other outcome.
    # The amount-1 runs have 12 oracle fills, each surviving a unit
    # lowering, whose children (extra edges among them) go through the
    # unit-lowering filter on every coordinate
    result = enumerate_shapes(n, d, config)
    assert tuple(map(_digest, (
        result.records, result.tree, result.report.decisions,
        sorted(result.report.per_grade.items())))) == digests


@pytest.mark.parametrize("n,d", [(3, 3), (2, 7), (2, 5), (2, 9)])
def test_span_is_tested_only_below_the_count_and_on_new_shapes(
        monkeypatch, n, d):
    # one test per accepted shape and per rejection before the grade
    # filled; none for an extra edge.  The descent does not stop testing
    # when a grade fills, so "grade is full" asserts that every candidate
    # passing the filter after that is an extra edge
    poly = shape_poly(n, d, Statistics.FERMION)
    real = _NormalFormSpan.extend
    classes: dict[_NormalFormSpan, list] = {}
    new_by_grade: dict[int, int] = {}

    def extend(self, coeffs):
        grade = sum(map(sum, next(iter(coeffs))))
        accepted = classes.setdefault(self, [])
        assert len(accepted) < poly.coeff(grade), "grade is full"
        # a candidate equal to a shape accepted here is an extra edge
        assert coeffs not in accepted, "span test on an accepted shape"
        new = real(self, coeffs)
        if new:
            accepted.append(coeffs)
            new_by_grade[grade] = new_by_grade.get(grade, 0) + 1
        return new

    monkeypatch.setattr(_NormalFormSpan, "extend", extend)
    result = enumerate_shapes(n, d, EngineConfig(exhaustive=True))
    words: dict[int, int] = {}
    for rec in result.records:
        if rec.provenance.kind == "word":
            words[rec.grade] = words.get(rec.grade, 0) + 1
    assert new_by_grade == words
    assert result.tree.extra_edges    # each one a candidate left untested
    assert not any(s.fallback for s in result.report.per_grade.values())


def test_tree_edges_descend_by_word_net():
    result = enumerate_shapes(3, 3)
    for child, (parent, word) in result.tree.edges.items():
        drop = word.net_grade()
        assert result.records[child].grade == result.records[parent].grade + drop
        assert drop < 0


def test_extra_edges_replay_with_sign():
    result = enumerate_shapes(3, 3)
    assert len(result.tree.extra_edges) == 19
    for src, dst, word, sign in result.tree.extra_edges:
        raw = apply_symword(word, result.records[src].poly)
        prim, _, rel = raw.normalized()
        assert prim == result.records[dst].poly
        assert rel == sign


def test_enumerate_rejects_bad_args():
    with pytest.raises(OddDimensionRequiredError):
        enumerate_shapes(2, 2)
    with pytest.raises(ValueError):
        enumerate_shapes(0, 3)


def test_fallback_fills_under_crippled_vocabulary():
    tiny = EngineConfig(max_letters=1)
    result = enumerate_shapes(2, 3, tiny)
    assert result.histogram() == {3: 1, 1: 3}
    assert {g: s.fallback for g, s in result.report.per_grade.items()
            if s.fallback} == {1: 3}
    assert len(result.tree.edges) == 0
    for rec in result.records[1:]:
        assert rec.provenance.kind == "oracle"
        raw = antisymmetrize(list(rec.provenance.rows))
        assert raw.normalized() == (
            rec.poly, rec.provenance.content, rec.provenance.sign,
        )
        assert rec.slater == slater_coefficients(rec.poly)


def test_fallback_large_run_keeps_histogram():
    result = enumerate_shapes(3, 3, EngineConfig(max_letters=1))
    assert result.histogram() == {2: 3, 3: 10, 4: 6, 5: 6, 6: 7, 7: 3, 9: 1}
    assert any(s.fallback for s in result.report.per_grade.values())
    # oracle fills are not descent shapes; they may survive unit
    # lowerings, and the run records that instead of failing
    assert result.report.annihilation_warnings


def test_fallback_under_crippled_vocabulary_is_certified():
    # the oracle takes an occupation set only when its normal form is new,
    # so even a one-letter vocabulary ends in a module basis
    result = enumerate_shapes(3, 3, EngineConfig(max_letters=1))
    poly = shape_poly(3, 3, Statistics.FERMION)
    assert verify_completeness(3, 3, result.records) == [
        (g, poly.coeff(g), poly.coeff(g)) for g in range(10)]


# --- module span and completeness --------------------------------------------

def test_module_span_matrix_source_alone_has_rank_one():
    result = enumerate_shapes(3, 3)
    matrix = module_span_matrix(9, result.records[:1], 3, 3)
    assert matrix.rank() == 1


def test_module_span_matrix_one_dimension_rank_one_per_grade():
    records = enumerate_shapes(1, 1).records
    for g in range(6):
        assert module_span_matrix(g, records, 1, 1).rank() == 1


def test_module_span_matrix_two_particles_full_rank():
    records = enumerate_shapes(2, 3).records
    series = state_count_series(2, 3, 6)
    for g in range(7):
        assert module_span_matrix(g, records, 2, 3).rank() == series.coeff(g)


def test_coinvariant_normal_forms():
    for n in range(1, 5):
        reducer = _CoinvariantReducer(n)
        # the standard monomials x_k^(<=k) fill the q-factorial [n]_q!
        blocks = [b for b in itertools.product(range(n), repeat=n)
                  if all(e <= k for k, e in enumerate(b))]
        assert len(blocks) == math.factorial(n)
        for b in blocks:
            assert reducer.block(b) == ((b, 1),)
        # every multiple of a positive-degree symmetric polynomial is zero
        for b in itertools.product(range(4), repeat=n):
            x = MPoly(n, 1, {b: 1})
            for j in range(1, n + 1):
                e = elementary_symmetric(0, j, n, 1)
                assert normal_form(reducer, x * e).is_zero()


def test_verify_completeness_two_particles():
    records = enumerate_shapes(2, 3).records
    results = verify_completeness(2, 3, records)
    poly = shape_poly(2, 3, Statistics.FERMION)
    assert results == [(g, poly.coeff(g), poly.coeff(g)) for g in range(4)]
    # the module rank the certificate stands in for, checked directly
    series = state_count_series(2, 3, 3)
    for g in range(4):
        assert module_span_matrix(g, records, 2, 3).rank() == series.coeff(g)


def test_verify_completeness_detects_missing_shape():
    records = enumerate_shapes(2, 3).records
    with pytest.raises(IncompletenessError, match="grade 1"):
        verify_completeness(2, 3, records[:-1])
    # every grade full, and one record more past the top grade
    past_top = records[-1]._replace(grade=4)
    with pytest.raises(IncompletenessError, match="5 shapes, expected 4"):
        verify_completeness(2, 3, records + [past_top])


def test_verify_completeness_detects_symmetric_multiple():
    # e1 times a grade-2 shape keeps the histogram but is not a new
    # generator: the module rank at grade 3 drops, and so does the
    # normal-form rank
    records = list(enumerate_shapes(3, 3).records)
    low = next(rec for rec in records if rec.grade == 2)
    i = next(i for i, rec in enumerate(records) if rec.grade == 3)
    records[i] = records[i]._replace(slater=slater_coefficients(
        elementary_symmetric(0, 1, 3, 3) * low.poly))
    assert module_span_matrix(3, records, 3, 3).rank() < \
        state_count_series(3, 3, 3).coeff(3)
    with pytest.raises(IncompletenessError, match="grade 3"):
        verify_completeness(3, 3, records)
    # every (slot, lower shape) pair where e1 in one coordinate takes the
    # lower shape into the slot's multidegree: the product alone fails at
    # the slot's grade, and the slot's shape plus 3 times it passes
    records = enumerate_shapes(3, 3).records
    controls = 0
    for slot in records:
        for low in records:
            rise = [a - b for a, b in zip(
                _multidegree(next(iter(slot.slater))),
                _multidegree(next(iter(low.slater))))]
            if sorted(rise) != [0, 0, 1]:
                continue
            controls += 1
            # the product kernel works on interned sets: intern the lower
            # shape's and map the product back to rows
            prod = slater_times_elementary(intern_sets(low.slater),
                                           rise.index(1), 1)
            prod = {multipoly._sets[sid]: c for sid, c in prod.items()}
            edited = list(records)
            edited[slot.id] = slot._replace(slater=prod)
            with pytest.raises(IncompletenessError,
                               match=f"grade {slot.grade}:"):
                verify_completeness(3, 3, edited)
            summed = dict(slot.slater)
            for rows, c in prod.items():
                summed[rows] = summed.get(rows, 0) + 3 * c
            edited[slot.id] = slot._replace(slater={
                rows: c for rows, c in summed.items() if c})
            verify_completeness(3, 3, edited)
    assert controls == 60


@pytest.mark.parametrize("n, d, config", [
    (2, 3, EngineConfig()), (3, 3, EngineConfig()), (2, 5, EngineConfig()),
    (3, 3, EngineConfig(max_letters=1)),
], ids=["2-3", "3-3", "2-5", "3-3-one-letter"])
def test_certificate_rank_is_the_monomial_normal_form_rank(n, d, config):
    # the sign-coinvariant classes and the monomial normal forms modulo the
    # coinvariant ideal have the same rank at every grade
    records = enumerate_shapes(n, d, config).records
    for g, expected, rank in verify_completeness(n, d, records):
        here = [rec for rec in records if rec.grade == g]
        assert rank == expected == normal_form_rank(here, n, d), g


@pytest.mark.parametrize("n, d", [(2, 3), (3, 3), (2, 5), (2, 7)])
def test_sign_coinvariant_dimension_is_the_shape_polynomial(n, d):
    # every occupation set of a grade spans the sign coinvariants there,
    # whose dimension is the shape-polynomial coefficient: a second route
    # to the shape polynomial, independent of qseries
    poly = shape_poly(n, d, Statistics.FERMION)
    for g in range(degree_D(d, n) + 2):
        span = _NormalFormSpan(_CoinvariantReducer(n))
        rank = sum(span.extend({rows: 1}) for rows in slater_basis(n, d, g))
        assert rank == poly.coeff(g), g


def test_verify_sign_conflict_is_minus_one():
    assert verify_sign_conflict() == -1


# --- exact decomposition ------------------------------------------------------

def test_express_source_is_unit_vector():
    result = enumerate_shapes(3, 3)
    phis = express_in_basis(source_shape(3, 3), result.records, 3, 3)
    assert phis[0] == {(0,) * 9: Fraction(1)}
    assert all(not phi for phi in phis[1:])


def test_express_symmetric_multiple_lands_on_one_index():
    result = enumerate_shapes(3, 3)
    idx = next(i for i, rec in enumerate(result.records) if rec.grade == 2)
    psi = elementary_symmetric(0, 1, 3, 3) * result.records[idx].poly
    phis = express_in_basis(psi, result.records, 3, 3)
    e1_exp = (1,) + (0,) * 8
    assert phis[idx] == {e1_exp: Fraction(1)}
    assert all(not phi for i, phi in enumerate(phis) if i != idx)


def test_express_zero_gives_empty_vector():
    result = enumerate_shapes(2, 3)
    phis = express_in_basis(MPoly.zero(2, 3), result.records, 2, 3)
    assert all(not phi for phi in phis)


def test_express_round_trip_random_combinations():
    rng = random.Random(4096)
    for n, d, max_grade, trials in ((2, 3, 3, 8), (3, 3, 5, 4)):
        result = enumerate_shapes(n, d)
        records = result.records
        for _ in range(trials):
            target = rng.randrange(2, max_grade + 1)
            built = [dict() for _ in records]
            acc = MPoly.zero(n, d)
            for i, rec in enumerate(records):
                if rec.grade > target:
                    continue
                monos = generator_monomials(n, d, target - rec.grade)
                for gexp in rng.sample(monos, min(2, len(monos))):
                    c = rng.randrange(-3, 4)
                    if c == 0:
                        continue
                    built[i][gexp] = built[i].get(gexp, Fraction(0)) + c
                built[i] = {e: Fraction(c) for e, c in built[i].items() if c}
            psi = assemble(records, built, n, d)
            if psi.is_zero():
                continue
            phis = express_in_basis(psi, records, n, d)
            assert phis == built
            assert assemble(records, phis, n, d) == psi


def test_express_round_trip_grade_8_several_multidegrees():
    rng = random.Random(8)
    records = enumerate_shapes(3, 3).records
    built = [dict() for _ in records]
    for i in rng.sample([i for i, rec in enumerate(records)
                         if rec.grade <= 8], 6):
        monos = generator_monomials(3, 3, 8 - records[i].grade)
        for gexp in rng.sample(monos, min(2, len(monos))):
            built[i][gexp] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    psi = assemble(records, built, 3, 3)
    blocks = {tuple(map(sum, zip(*rows))) for rows in slater_coefficients(psi)}
    assert len(blocks) > 1
    assert express_in_basis(psi, records, 3, 3) == built


def test_express_round_trip_top_grade():
    # at the top grade every record takes part, and the root enters with
    # the all-zero generator monomial
    rng = random.Random(9)
    records = enumerate_shapes(3, 3).records
    assert records[0].grade == degree_D(3, 3) == 9
    built = [dict() for _ in records]
    built[0][(0,) * 9] = Fraction(-2)
    for i in rng.sample(range(1, len(records)), 5):
        monos = generator_monomials(3, 3, 9 - records[i].grade)
        for gexp in rng.sample(monos, min(2, len(monos))):
            built[i][gexp] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    psi = assemble(records, built, 3, 3)
    assert psi.grade() == 9
    phis = express_in_basis(psi, records, 3, 3)
    assert phis == built
    assert assemble(records, phis, 3, 3) == psi


@pytest.mark.parametrize("n,d,g", [(2, 3, 4), (2, 3, 6), (3, 3, 10),
                                   (3, 3, 11)])
def test_express_round_trip_above_the_top_grade(n, d, g):
    # the certificate makes the shapes an R-basis of the whole module, not
    # only of the grades up to the top one: a few seeded determinants
    rng = random.Random(g)
    assert g > degree_D(d, n)
    records = enumerate_shapes(n, d).records
    psi = MPoly.zero(n, d)
    for rows in rng.sample(slater_basis(n, d, g), 3):
        psi = psi + antisymmetrize(list(rows)).scale(
            rng.choice((-3, -2, -1, 1, 2, 3)))
    phis = express_in_basis(psi, records, n, d)
    assert all(rec.grade <= g for rec, phi in zip(records, phis) if phi)
    assert assemble(records, phis, n, d) == psi


def test_express_round_trip_two_five():
    # five coordinates: a block per multidegree of up to five parts
    rng = random.Random(2505)
    records = enumerate_shapes(2, 5).records
    assert degree_D(5, 2) == 5
    for target in (2, 3, 4, 5):
        built = [dict() for _ in records]
        for i, rec in enumerate(records):
            if rec.grade > target:
                continue
            monos = generator_monomials(2, 5, target - rec.grade)
            for gexp in rng.sample(monos, min(2, len(monos))):
                built[i][gexp] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
        psi = assemble(records, built, 2, 5)
        assert not psi.is_zero()
        phis = express_in_basis(psi, records, 2, 5)
        assert phis == built
        assert assemble(records, phis, 2, 5) == psi


def _pinned_decompositions_digest() -> str:
    """Values and key order of every Phi, on seeded (3,3) states at grades
    5-8 built as the decompose benchmark builds them: a random integer
    combination of up to three antisymmetrized occupation sets."""
    records = enumerate_shapes(3, 3).records
    out = []
    for seed in range(1, 13):
        for grade in (5, 6, 7, 8):
            rng = random.Random(f"{seed}/0/{grade}")
            basis = slater_basis(3, 3, grade)
            psi = MPoly.zero(3, 3)
            for rows in rng.sample(basis, min(3, len(basis))):
                coeff = rng.choice((-3, -2, -1, 1, 2, 3))
                psi = psi + antisymmetrize(list(rows)).scale(coeff)
            phis = express_in_basis(psi, records, 3, 3)
            out.append([list(phi.items()) for phi in phis])
    return _digest(out)


def test_decomposition_is_pinned():
    # the occupation-set table lives as long as the process, so the pin
    # holds on a cold table (a fresh interpreter, nothing interned yet)...
    tests = Path(__file__).resolve().parent
    cold = subprocess.run(
        [sys.executable, "-c",
         "import sys; from shapeforge import multipoly; "
         "assert not multipoly._sets; "
         f"sys.path.insert(0, {str(tests)!r}); import test_engine; "
         "print(test_engine._pinned_decompositions_digest())"],
        env={**os.environ, "PYTHONPATH": str(tests.parent / "src")},
        capture_output=True, text=True, check=True)
    assert cold.stdout.strip() == "25c0cf9d6bf4a087", cold.stderr
    # ...and on one that other spaces and a top-grade state filled first
    rng = random.Random(27)
    for n, d, grade in ((2, 3, 3), (2, 5, 5), (3, 3, 9)):
        records = enumerate_shapes(n, d).records
        psi = slater_to_poly({rows: rng.choice((-3, -2, -1, 1, 2, 3))
                              for rows in rng.sample(
                                  slater_basis(n, d, grade), 3)}, n, d)
        phis = express_in_basis(psi, records, n, d)
        assert assemble(records, phis, n, d) == psi
    assert _pinned_decompositions_digest() == "25c0cf9d6bf4a087"
    # the spaces share one table, whose ids stay dense
    sets, ids = multipoly._sets, multipoly._ids
    assert len(sets) == len(ids)
    assert all(sets[ids[rows]] == rows for rows in ids)


def test_decomposition_shares_rows():
    # the table's sets hold one object per distinct row after a (3,3) op,
    # whether the row came from psi, from a record or from raising a row
    records = enumerate_shapes(3, 3).records
    for grade in (5, 6, 7, 8):
        rng = random.Random(f"1/0/{grade}")
        psi = slater_to_poly({rows: rng.choice((-3, -2, -1, 1, 2, 3))
                              for rows in rng.sample(
                                  slater_basis(3, 3, grade), 3)}, 3, 3)
        phis = express_in_basis(psi, records, 3, 3)
        assert assemble(records, phis, 3, 3) == psi
    rows = [r for rows in multipoly._sets for r in rows]
    assert len({id(r) for r in rows}) == len(set(rows))


@pytest.mark.parametrize("n,d", [(3, 3), (2, 5)])
def test_records_from_another_space_are_refused(n, d):
    # both used to run on: express_in_basis blamed the span, and assemble
    # expanded sets of n rows as 2-particle determinants
    records = enumerate_shapes(n, d).records
    mismatch = rf"record 0 is over \(n={n},d={d}\), not \(n=2,d=3\)"
    for rec in enumerate_shapes(2, 3).records:
        with pytest.raises(DimensionMismatchError, match=mismatch):
            express_in_basis(rec.poly, records, 2, 3)
    with pytest.raises(DimensionMismatchError, match=mismatch):
        express_in_basis(MPoly.zero(2, 3), records, 2, 3)
    phis = [{(0,) * 6: Fraction(1)} for _ in records]
    with pytest.raises(DimensionMismatchError, match=mismatch):
        assemble(records, phis, 2, 3)


def test_assemble_matches_the_monomial_products():
    # assemble shares its products with express_in_basis, so it is checked
    # here against generator monomials multiplied out in MPoly
    rng = random.Random(77)
    for n, d in ((2, 3), (3, 3)):
        records = enumerate_shapes(n, d).records
        for _ in range(6):
            phis = [dict() for _ in records]
            want = MPoly.zero(n, d)
            for i in rng.sample(range(len(records)), min(4, len(records))):
                monos = generator_monomials(n, d, rng.randrange(3))
                for gexp in rng.sample(monos, min(2, len(monos))):
                    c = rng.choice((-3, -2, -1, 1, 2, 3))
                    phis[i][gexp] = Fraction(c)
                    want = want + (_generator_expansion(n, d, gexp)
                                   * records[i].poly).scale(c)
            assert assemble(records, phis, n, d) == want
    # halves that do not cancel are refused
    records = enumerate_shapes(2, 3).records
    phis = [dict() for _ in records]
    phis[1][(1,) + (0,) * 5] = Fraction(1, 2)
    with pytest.raises(ValueError, match="non-integer coefficient 1/2"):
        assemble(records, phis, 2, 3)


@pytest.mark.parametrize("case", ["too few phis", "too many phis",
                                  "short exponent tuple"])
def test_assemble_rejects_phis_that_do_not_fit(case):
    # each of these used to return a polynomial: pairing records with phis
    # dropped the surplus of either, and a length-4 exponent tuple at (3,3)
    # was read as a monomial in the first four generators
    records = enumerate_shapes(3, 3).records
    phis = [dict() for _ in records]
    for phi in phis:
        phi[(0,) * 9] = Fraction(1)
    if case == "too few phis":
        phis, match = phis[:3], "argument 2 is shorter"
    elif case == "too many phis":
        records, match = records[:3], "argument 2 is longer"
    else:
        phis[4] = {(1, 0, 0, 1): Fraction(1)}
        match = "not of length 9"
    with pytest.raises(ValueError, match=match):
        assemble(records, phis, 3, 3)


def _weights(n, d, gexp):
    return tuple(sum(j * e for j, e in enumerate(gexp[c * n:(c + 1) * n], 1))
                 for c in range(d))


@pytest.mark.parametrize("n, d", [(2, 3), (3, 3), (2, 5)])
def test_rising_monomials_are_the_filtered_generator_monomials(n, d):
    per_rise = [generator_monomials(n, 1, k) for k in range(7)]
    degree = tuple(range(1, d + 1))
    for k in range(7):
        by_block = {}
        for gexp in generator_monomials(n, d, k):
            block = tuple(map(sum, zip(degree, _weights(n, d, gexp))))
            by_block.setdefault(block, []).append(gexp)
        for block, want in by_block.items():
            got = list(_rising_monomials(per_rise, degree, block))
            assert sorted(got) == sorted(want), (k, block)
    # a zero rise gives only the empty monomial
    assert list(_rising_monomials(per_rise, degree, degree)) == [(0,) * n * d]
    # a block below the shape in one coordinate is out of reach, even when
    # another coordinate makes up the total
    below = (degree[0] + 2, degree[1] - 1) + degree[2:]
    assert list(_rising_monomials(per_rise, degree, below)) == []


def test_express_rejects_malformed_records():
    records = list(enumerate_shapes(2, 3).records)
    psi = source_shape(2, 3)
    i = next(i for i, rec in enumerate(records) if rec.grade == 1)
    # one monomial, too few terms for the occupation sets it has: the
    # loader keeps no coefficients for a polynomial that is not antisymmetric
    lone = MPoly(2, 3, {(0, 1, 0, 0, 0, 0): 1})
    with pytest.raises(ValueError):
        slater_coefficients(lone)
    bad = list(records)
    bad[i] = records[i]._replace(slater=None)
    with pytest.raises(ValueError, match="not antisymmetric"):
        express_in_basis(psi, bad, 2, 3)
    # antisymmetric and of total degree 1, but in two multidegrees
    mixed = (antisymmetrize([(0, 0, 0), (1, 0, 0)])
             + antisymmetrize([(0, 0, 0), (0, 1, 0)]))
    bad[i] = records[i]._replace(slater=slater_coefficients(mixed))
    with pytest.raises(ValueError, match="homogeneous in each coordinate"):
        express_in_basis(psi, bad, 2, 3)


def test_express_outside_the_span_is_incomplete():
    # without one grade-1 shape the rest cannot build it
    records = enumerate_shapes(2, 3).records
    i = next(i for i, rec in enumerate(records) if rec.grade == 1)
    rest = records[:i] + records[i + 1:]
    with pytest.raises(IncompletenessError, match="outside the module span"):
        express_in_basis(records[i].poly, rest, 2, 3)


def test_express_rejects_bad_inputs():
    result = enumerate_shapes(2, 3)
    records = result.records
    mixed = MPoly(2, 3, {(1, 0, 0, 0, 0, 0): 1, (2, 0, 0, 1, 0, 0): -1,
                         (0, 1, 0, 0, 0, 0): -1, (0, 2, 1, 0, 0, 0): 1})
    with pytest.raises(ValueError):
        express_in_basis(mixed, records, 2, 3)
    symmetric = elementary_symmetric(0, 1, 2, 3)
    with pytest.raises(ValueError):
        express_in_basis(symmetric, records, 2, 3)
    # grade 7, above the top grade 3, is no bad input: the certificate
    # makes the shapes an R-basis of the whole module (graded Nakayama)
    e1 = elementary_symmetric(0, 1, 2, 3)
    above = e1 * e1 * e1 * e1 * source_shape(2, 3)
    phis = express_in_basis(above, records, 2, 3)
    assert [i for i, phi in enumerate(phis) if phi] == [0]
    assert phis[0] == {(4, 0, 0, 0, 0, 0): 1}
    assert assemble(records, phis, 2, 3) == above


def test_express_rejects_psi_of_another_shape():
    records33 = enumerate_shapes(3, 3).records
    records23 = enumerate_shapes(2, 3).records
    psi = records33[5].poly
    # a (3,3) psi against d=5 used to decompose without complaint, and
    # against (2,3) records failed as "grade 6 beyond the verified range"
    for records, n, d in ((records33, 3, 5), (records23, 2, 3)):
        with pytest.raises(DimensionMismatchError,
                           match=rf"\(n=3,d=3\) vs \(n={n},d={d}\)"):
            express_in_basis(psi, records, n, d)
    with pytest.raises(DimensionMismatchError):
        express_in_basis(MPoly.zero(3, 3), records23, 2, 3)
