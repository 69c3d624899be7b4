"""End-to-end acceptance gate: nine numbered criteria, each with frozen
expected values and, where stated, a wall-clock budget.

Run standalone with `pytest tests/test_acceptance.py -v`; every criterion
prints one PASS or FAIL line.  The heavy enumerations run once in
module-scoped fixtures and are timed there, so the budget applies to the
computation itself, not to fixture reuse.
"""

import hashlib
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from shapeforge.engine import (
    assemble,
    build_vocabulary,
    enumerate_shapes,
    express_in_basis,
    generator_monomials,
    verify_completeness,
    verify_sign_conflict,
)
from shapeforge.multipoly import (
    MPoly,
    slater_basis,
    slater_to_poly,
    source_shape,
    vandermonde,
)
from shapeforge.serialize import (
    document_from_result,
    document_pieces,
    document_to_dot,
)
from shapeforge.qseries import (
    Statistics,
    degree_D,
    min_fill_grade,
    mirror_check,
    palindrome_check,
    shape_poly,
    state_count_series,
)
from shapeforge.shiftops import (
    Letter,
    apply_letter_at,
    apply_symword,
    apply_word_at,
    symword,
    word,
)

from span_reference import module_span_matrix

F = Statistics.FERMION
B = Statistics.BOSON


@contextmanager
def criterion(number, label, capsys, limit=None):
    """Times the block and prints one PASS/FAIL line past pytest's capture;
    `info['elapsed']` lets a test substitute the fixture's measured time for
    a precomputed result."""

    def say(line):
        with capsys.disabled():
            print(line)

    info = {"elapsed": None}
    start = time.perf_counter()
    try:
        yield info
    except BaseException:
        say(f"criterion {number}: FAIL  {label}")
        raise
    elapsed = info["elapsed"]
    if elapsed is None:
        elapsed = time.perf_counter() - start
    if limit is not None and elapsed >= limit:
        say(f"criterion {number}: FAIL  {label}  "
            f"({elapsed:.2f}s, budget {limit:.0f}s)")
        pytest.fail(f"criterion {number} exceeded its {limit:.0f}s budget: "
                    f"{elapsed:.2f}s")
    budget = "" if limit is None else f", budget {limit:.0f}s"
    say(f"criterion {number}: PASS  {label}  ({elapsed:.2f}s{budget})")


@pytest.fixture(scope="module")
def timed33():
    start = time.perf_counter()
    result = enumerate_shapes(3, 3)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def timed43():
    start = time.perf_counter()
    result = enumerate_shapes(4, 3)
    return result, time.perf_counter() - start


def test_criterion_1_recursion_goldens(capsys):
    with criterion(1, "shape polynomial recursion goldens", capsys, 1.0):
        shape_poly.cache_clear()
        fermion = shape_poly(3, 3, F)
        boson = shape_poly(3, 3, B)
        assert list(fermion.coeffs) == [0, 0, 3, 10, 6, 6, 7, 3, 0, 1]
        assert list(boson.coeffs) == [1, 0, 3, 7, 6, 6, 10, 3]


def test_criterion_2_state_count_two_routes(capsys):
    with criterion(2, "grade-9 state count 3838 by two routes", capsys, 30.0):
        assert state_count_series(3, 3, 9).coeff(9) == 3838
        assert len(slater_basis(3, 3, 9)) == 3838


def test_criterion_3_structure_laws(capsys):
    with criterion(3, "degree, mirror, palindrome and sum laws to N=6 d=5", capsys):
        for n in range(0, 7):
            for d in range(1, 6):
                fermion = shape_poly(n, d, F)
                boson = shape_poly(n, d, B)
                total = math.factorial(n) ** (d - 1)
                assert sum(fermion.coeffs) == total
                assert sum(boson.coeffs) == total
                if d % 2 == 1:
                    assert fermion.degree == degree_D(d, n)
                    assert fermion.lowest_power() == min_fill_grade(d, n)
                    assert mirror_check(n, d)
                else:
                    assert boson.degree == degree_D(d, n)
                    assert palindrome_check(n, d)


def test_criterion_4_enumeration_golden(timed33, capsys):
    result, elapsed = timed33
    with criterion(4, "36 shapes with the expected histogram", capsys, 120.0) as info:
        info["elapsed"] = elapsed
        assert len(result.records) == 36
        assert result.histogram() == {2: 3, 3: 10, 4: 6, 5: 6, 6: 7, 7: 3, 9: 1}
        assert len(result.tree.edges) == 35
        root = result.records[result.tree.root]
        assert root.grade == 9
        assert root.poly == source_shape(3, 3)


def test_criterion_5_sign_conflict(capsys):
    with criterion(5, "conflicting lowering routes disagree by a sign", capsys):
        assert verify_sign_conflict(3, 3) == -1


def test_criterion_6_completeness(timed33, capsys):
    result, _ = timed33
    with criterion(6, "normal forms independent and module rank equal to "
                      "the state count at grades 0..9", capsys):
        triples = verify_completeness(3, 3, result.records)
        coeffs = shape_poly(3, 3, F)
        series = state_count_series(3, 3, 9)
        assert [g for g, _, _ in triples] == list(range(10))
        for g, expected, rank in triples:
            assert rank == expected == coeffs.coeff(g)
            assert module_span_matrix(g, result.records, 3, 3).rank() == \
                series.coeff(g)


def test_criterion_7_shift_operator_goldens(capsys):
    with criterion(7, "shift operator unit goldens", capsys):
        # lowering the third coordinate of one column of a 2-particle
        # determinant keeps exactly one term
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
        assert got == MPoly(n, d, {(2, 1, 3, 2, 0, 0): 1})

        # the cyclic sum of unit lowerings kills the Vandermonde form
        assert apply_symword(symword((0, -1)), vandermonde(0, 3, 1)).is_zero()

        # on the constant: lowering first annihilates, raising first does not
        one = MPoly.const(1, 1, 1)
        assert apply_word_at(word((0, 1), (0, -1)), 0, one).is_zero()
        assert apply_word_at(word((0, -1), (0, 1)), 0, one) == one


def test_criterion_8_scale_up(timed43, capsys):
    result, elapsed = timed43
    with criterion(8, "576 shapes match the recursion histogram, are "
                      "certified complete and match their pinned digests, "
                      "shapes.json included",
                   capsys, 1800.0) as info:
        info["elapsed"] = elapsed
        assert len(result.records) == 576 == math.factorial(4) ** 2
        coeffs = shape_poly(4, 3, F).coeffs
        assert result.histogram() == {g: c for g, c in enumerate(coeffs) if c}
        triples = verify_completeness(4, 3, result.records)
        assert [(g, rank) for g, _, rank in triples] == list(enumerate(coeffs))
        # the descent's candidate totals: tried, zero, survived, in_span
        stats = result.report.per_grade.values()
        assert tuple(sum(getattr(s, k) for s in stats)
                     for k in ("tried", "zero", "survived", "in_span")) == \
            (9784, 3475, 4427, 1307)
        # the records and the tree, pinned byte for byte
        polys = "\n".join(rec.poly.canonical_str() for rec in result.records)
        assert hashlib.sha256((polys + "\n").encode()).hexdigest() == (
            "6888f3f0fa0f9149d100ce9adda270ba0a4400ef5046a54df65ede94001b12f0")
        doc = document_from_result(result)
        dot = document_to_dot(doc)
        assert hashlib.sha256(dot.encode()).hexdigest() == (
            "2b4b6cfde23e77bec15fe27d30b5c35c1c5a9a4112f46738738ee75633baca06")
        # the shapes.json bytes that gen -N 4 -d 3 writes, hashed as they
        # stream, so the 641 MB text is never held
        artifact = hashlib.sha256()
        for piece in document_pieces(doc):
            artifact.update(piece.encode())
        assert artifact.hexdigest() == (
            "84dfd7565009d32eac8807084152ddb8541e08034092416d1afb0aaa41455c4d")


def test_criterion_9_property_suites(timed33, timed43, capsys):
    with criterion(9, "antisymmetry, replay and round-trip properties", capsys):
        rng = random.Random(20260819)
        res23 = enumerate_shapes(2, 3)
        res33 = timed33[0]

        # 200 random (word, shape) pairs: symmetrized words keep the result
        # antisymmetric (possibly zero)
        words = build_vocabulary(3)
        pools = [res23.records, res33.records]
        for _ in range(200):
            rec = rng.choice(rng.choice(pools))
            w = rng.choice(words)
            assert apply_symword(w, rec.poly).is_antisymmetric()

        # every emitted shape replays from its recorded provenance
        for result in (res23, res33, timed43[0]):
            for rec in result.records:
                pv = rec.provenance
                if pv.kind == "root":
                    assert rec.poly == source_shape(result.n, result.d)
                    assert (pv.content, pv.sign) == (1, 1)
                else:
                    assert pv.kind == "word"
                    raw = apply_symword(pv.word, result.records[pv.parent].poly)
                    assert raw.normalized() == (rec.poly, pv.content, pv.sign)

        # 50 random module elements decompose back to the coefficients
        # they were assembled from
        trips = 0
        plans = [(res23, 3, 30), (res33, 5, 20)]
        for result, top, quota in plans:
            records = result.records
            done = 0
            while done < quota:
                target = rng.randrange(1, top + 1)
                built = [dict() for _ in records]
                for i, rec in enumerate(records):
                    if rec.grade > target:
                        continue
                    monos = generator_monomials(result.n, result.d,
                                                target - rec.grade)
                    for gexp in rng.sample(monos, min(2, len(monos))):
                        c = rng.randrange(-3, 4)
                        if c:
                            built[i][gexp] = Fraction(c)
                psi = assemble(records, built, result.n, result.d)
                if psi.is_zero():
                    continue
                phis = express_in_basis(psi, records, result.n, result.d)
                assert phis == built
                assert assemble(records, phis, result.n, result.d) == psi
                done += 1
            trips += done
        assert trips == 50

        # a (4,3) grade-12 state, drawn as the benchmark's decompose
        # workload draws its (3,3) states (seed 1, op 0), round-trips
        res43 = timed43[0]
        pick = random.Random("1/0/12")
        psi = slater_to_poly({rows: pick.choice((-3, -2, -1, 1, 2, 3))
                              for rows in pick.sample(slater_basis(4, 3, 12), 3)},
                             4, 3)
        phis = express_in_basis(psi, res43.records, 4, 3)
        assert any(phis)
        assert assemble(res43.records, phis, 4, 3) == psi
