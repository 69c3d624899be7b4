"""Descent enumeration of the antisymmetric module generators.

Every antisymmetric polynomial decomposes uniquely as sum_i Phi_i *
Psi_i where the Phi_i are symmetric (polynomials in the per-coordinate
elementary symmetric generators) and the Psi_i are the shapes: one
generator per grade counted by the shape polynomial.  The enumerator
walks grades downward from the single top-grade generator, applying a
vocabulary of symmetrized lowering words to every shape found so far.
A candidate is a new shape when it is nonzero, is annihilated by every
symmetrized unit lowering, and extends the exact span of the shapes
already accepted at its grade; everything is integer arithmetic, so
acceptance is never a judgement call.

The descent runs in occupation-set coordinates.  An antisymmetric
polynomial is a sum of Slater determinants Alt(rows), one per set of n
distinct d-tuples, so every shape and candidate is held as one
coefficient per set instead of n! monomials.  A symmetrized word is a
one-body operator and acts on one row of a set at a time
(shiftops.apply_symword_slater), so antisymmetry holds by construction
and is never re-checked; the span matrix has one column per set, and
content and sign come from the set coefficients.  Only accepted shapes
are expanded into the particle variables.

If the vocabulary fails to fill a grade, the enumerator falls back to
antisymmetrized occupation sets, which span the full antisymmetric
space at that grade; it takes one only when its normal form (see below)
is new, so the result stays a module basis.  Fallback activations are
first-class report data.

verify_completeness certifies the final generator set without forming
a single module product.  The antisymmetric polynomials A are a free
module over the ring R of polynomials symmetric in each coordinate
separately (Chevalley's theorem: k[X] is free over R, and A is an
R-linear direct summand of it).  By graded Nakayama, homogeneous
antisymmetric polynomials form an R-basis of A iff their images in
A / R+ A, which sits inside the coinvariant algebra k[X] / R+ k[X], are
a basis there.  That quotient has dimension shape_poly(n, d).coeff(g) at
grade g, so the certificate reduces every shape to its normal form
modulo R+ k[X] and checks that, grade by grade, there are exactly that
many shapes and their normal forms are linearly independent (see
Sturmfels, Algorithms in Invariant Theory, ch. 1).  module_span_matrix,
the direct rank of the module span, stays as the reference that tests
compare the certificate against.

express_in_basis computes the decomposition itself by exact elimination
in the same occupation-set coordinates, reading each shape's set
coefficients from its record (ShapeRecord.slater).  An elementary
symmetric generator acts on a set by raising subsets of its rows
(Slater-Condon rules; Szabo & Ostlund, Modern Quantum Chemistry,
ch. 2).  R and every shape are homogeneous in each coordinate
separately, so the linear system splits into independent blocks, one
per multidegree, and only the blocks the target touches are solved.
The solve is exactla's one reduction kernel on an augmented matrix:
each product row carries a unit column of its own past the occupation
sets, so the target's residual names the products that build it.  The
shapes must be a basis, so the products are independent and every row
pivots on an occupation set.  assemble, the way back, multiplies out in
the particle variables.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .exactla import SparseIntMatrix
from .multipoly import (
    MonomialIndex,
    MPoly,
    OddDimensionRequiredError,
    antisymmetrize,
    coeff_vector,
    elementary_symmetric,
    slater_basis,
    slater_coefficients,
    slater_normalized,
    slater_times_elementary,
    slater_to_poly,
    source_shape,
)
from .qseries import (
    Statistics,
    degree_D,
    ground_grade,
    shape_entropy,
    shape_poly,
)
from .shiftops import Letter, SymWord, Word, apply_symword, apply_symword_slater

logger = logging.getLogger(__name__)


class IncompletenessError(RuntimeError):
    """The accepted generators fail to span at some grade."""


class NotationRegressionError(RuntimeError):
    """A pinned operator-notation identity stopped holding."""


# --- vocabulary -----------------------------------------------------------

@dataclass(frozen=True)
class EngineConfig:
    max_letters: int = 4
    max_amount: int = 3
    max_drop: int = 4
    exhaustive: bool = False   # keep scanning a grade after it has filled


@dataclass(frozen=True)
class Vocabulary:
    d: int
    config: EngineConfig
    words: tuple[SymWord, ...]

    def __len__(self) -> int:
        return len(self.words)


def _coordinate_atoms(c: int, config: EngineConfig) -> list[tuple[Letter, ...]]:
    """Net-lowering letter groups acting on a single coordinate: plain
    lowerings and raise-then-lower pairs (the lowering applies first)."""
    atoms = [(Letter(c, -m),) for m in range(1, config.max_amount + 1)]
    for b in range(2, config.max_amount + 1):
        for a in range(1, b):
            atoms.append((Letter(c, a), Letter(c, -b)))
    return atoms


def build_vocabulary(d: int, config: EngineConfig = EngineConfig()) -> Vocabulary:
    """All words formed by picking one atom for each coordinate of a
    nonempty coordinate subset, concatenated in descending coordinate
    order, within the letter-count and net-drop bounds.  Ordered by
    (|net|, length, letters); single amount-1 lowerings are included but
    the descent skips them since they annihilate every shape.

    Every atom has at least one letter and a net drop of at least one, so
    the words are grown one coordinate at a time, in descending order, and
    a branch stops once its letter budget or its drop budget is spent."""
    if d < 1:
        raise ValueError("d must be positive")
    if config.max_letters < 1 or config.max_amount < 1 or config.max_drop < 1:
        raise ValueError("vocabulary bounds must be positive")
    atoms = [
        [(atom, sum(l.step for l in atom))
         for atom in _coordinate_atoms(c, config)]
        for c in range(d)
    ]
    words = []

    def grow(below: int, letters: tuple[Letter, ...], net: int):
        for c in range(below - 1, -1, -1):
            for atom, drop in atoms[c]:
                longer = letters + atom
                if (len(longer) > config.max_letters
                        or net + drop < -config.max_drop):
                    continue
                words.append(SymWord(Word(longer)))
                grow(c, longer, net + drop)

    grow(d, (), 0)
    words.sort(key=lambda w: (-w.net_grade(), len(w.word.letters), w.word.letters))
    return Vocabulary(d=d, config=config, words=tuple(words))


def _is_single_unit_down(w: SymWord) -> bool:
    ls = w.word.letters
    return len(ls) == 1 and ls[0].step == -1


# --- run artifacts ----------------------------------------------------------

@dataclass(frozen=True)
class Provenance:
    """How a shape was produced: the root, a lowering word applied to a
    parent, or an oracle element.  poly == sign * (raw result / content)."""

    kind: str                       # "root" | "word" | "oracle"
    parent: int | None = None
    word: SymWord | None = None
    rows: tuple | None = None       # occupation set for oracle shapes
    content: int = 1
    sign: int = 1


@dataclass
class ShapeRecord:
    id: int
    grade: int
    poly: MPoly                     # primitive, positive leading coefficient
    provenance: Provenance
    entropy: float

    @functools.cached_property
    def slater(self) -> dict[tuple, int]:
        """poly's Slater coefficients {rows ascending: coefficient}.

        enumerate_shapes seeds them; otherwise they are read off poly once,
        with cheap guards: a term count other than n! times the number of
        occupation sets (not antisymmetric), or more than one multidegree,
        raises ValueError.
        """
        coeffs = slater_coefficients(self.poly)
        if len(self.poly.terms) != math.factorial(self.poly.n) * len(coeffs):
            raise ValueError(f"record {self.id} is not antisymmetric")
        if len({_multidegree(rows) for rows in coeffs}) != 1:
            raise ValueError(
                f"record {self.id} is not homogeneous in each coordinate")
        return coeffs


def _multidegree(rows: tuple) -> tuple:
    """Degree in each coordinate of Alt(rows)."""
    return tuple(map(sum, zip(*rows)))


def _with_slater(rec: ShapeRecord, coeffs: dict[tuple, int]) -> ShapeRecord:
    """Seed rec.slater with coefficients known by construction."""
    vars(rec)["slater"] = coeffs
    return rec


@dataclass
class BranchingTree:
    root: int
    edges: dict[int, tuple[int, SymWord]]              # child -> (parent, word)
    extra_edges: list[tuple[int, int, SymWord, int]]   # (from, to, word, sign)

    def edge_count(self) -> int:
        return len(self.edges)


@dataclass
class GradeStats:
    expected: int
    found: int = 0
    tried: int = 0
    zero: int = 0
    survived: int = 0    # rejected: not annihilated by every unit lowering
    in_span: int = 0
    skipped: int = 0
    fallback: int = 0


@dataclass
class RunReport:
    n: int
    d: int
    vocabulary_size: int
    per_grade: dict[int, GradeStats]
    fallback_events: list[tuple[int, int]] = field(default_factory=list)
    decisions: list[tuple] = field(default_factory=list)
    annihilation_warnings: list[tuple[int, int]] = field(default_factory=list)
    elapsed: float = 0.0

    def expected_histogram(self) -> dict[int, int]:
        return {g: s.expected for g, s in self.per_grade.items() if s.expected}

    def found_histogram(self) -> dict[int, int]:
        return {g: s.found for g, s in self.per_grade.items() if s.found}


@dataclass
class EnumerationResult:
    n: int
    d: int
    records: list[ShapeRecord]
    tree: BranchingTree
    report: RunReport

    def histogram(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for rec in self.records:
            out[rec.grade] = out.get(rec.grade, 0) + 1
        return dict(sorted(out.items()))


# --- descent ---------------------------------------------------------------

def _surviving_coordinates(coeffs: dict[tuple, int],
                           lowerings: Sequence[SymWord]):
    """Yield each coordinate whose symmetrized unit lowering leaves the
    polynomial with these Slater coefficients nonzero.  Every shape
    vanishes under all of them: the descent rejects candidates that
    survive one, and the root must not; only oracle fills may survive
    (they trade the invariant for guaranteed span coverage), which is
    reported as a warning."""
    for c, w in enumerate(lowerings):
        if apply_symword_slater(w, coeffs):
            yield c


def enumerate_shapes(
    n: int, d: int, config: EngineConfig = EngineConfig()
) -> EnumerationResult:
    """Enumerate all n!^(d-1) shapes for n particles in odd dimension d."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if d % 2 == 0:
        raise OddDimensionRequiredError(f"enumeration needs odd d, got {d}")
    t0 = time.perf_counter()
    poly = shape_poly(n, d, Statistics.FERMION)
    top = degree_D(d, n)
    bottom = ground_grade(d, n)
    vocab = build_vocabulary(d, config)
    by_net: dict[int, list[tuple[int, SymWord]]] = {}
    for widx, w in enumerate(vocab.words):
        if _is_single_unit_down(w):
            continue
        by_net.setdefault(w.net_grade(), []).append((widx, w))

    per_grade = {top: GradeStats(expected=1, found=1)}
    report = RunReport(n=n, d=d, vocabulary_size=len(vocab),
                       per_grade=per_grade)

    src = source_shape(n, d)
    records = [_with_slater(
        ShapeRecord(0, top, src, Provenance(kind="root"),
                    shape_entropy(n, d, top)),
        slater_coefficients(src))]
    tree = BranchingTree(root=0, edges={}, extra_edges=[])
    lowerings = [SymWord(Word((Letter(c, -1),))) for c in range(d)]
    survivor = next(_surviving_coordinates(records[0].slater, lowerings), None)
    if survivor is not None:
        raise AssertionError(
            f"the source shape survives unit lowering on coordinate {survivor}"
        )
    _log_grade(top, per_grade[top], t0)

    def accept(g: int, prim: dict[tuple, int], provenance: Provenance) -> int:
        rid = len(records)
        records.append(_with_slater(
            ShapeRecord(rid, g, slater_to_poly(prim, n, d), provenance,
                        shape_entropy(n, d, g)),
            prim))
        return rid

    for g in range(top - 1, bottom - 1, -1):
        started = time.perf_counter()
        expected = poly.coeff(g)
        stats = GradeStats(expected=expected)
        per_grade[g] = stats
        if expected == 0:
            _log_grade(g, stats, started)
            continue
        # one column per occupation set: every candidate is antisymmetric
        # by construction, so its Slater coefficients determine it
        columns: dict[tuple, int] = {}
        matrix = SparseIntMatrix()
        # accepted shapes at this grade by their Slater coefficients, to
        # tag rejected candidates that reproduce a known shape
        accepted_here: dict[frozenset, int] = {}
        candidates = [
            (rec, widx, w)
            for rec in records
            if rec.grade > g
            for widx, w in by_net.get(g - rec.grade, ())
        ]
        consumed = 0
        for rec, widx, w in candidates:
            if stats.found == expected and not config.exhaustive:
                break
            consumed += 1
            stats.tried += 1
            chi = apply_symword_slater(w, rec.slater)
            if not chi:
                stats.zero += 1
                report.decisions.append((g, rec.id, widx, "zero", None))
                continue
            if next(_surviving_coordinates(chi, lowerings), None) is not None:
                stats.survived += 1
                report.decisions.append((g, rec.id, widx, "survives", None))
                continue
            for rows in chi:
                columns.setdefault(rows, len(columns))
            matrix.resize(len(columns))
            prim, cont, sign = slater_normalized(chi)
            if matrix.try_extend({columns[rows]: c for rows, c in chi.items()}):
                rid = accept(g, prim, Provenance(kind="word", parent=rec.id,
                                                 word=w, content=cont,
                                                 sign=sign))
                tree.edges[rid] = (rec.id, w)
                accepted_here[frozenset(prim.items())] = rid
                stats.found += 1
                report.decisions.append((g, rec.id, widx, "accepted", rid))
                if stats.found > expected:
                    raise IncompletenessError(
                        f"grade {g}: accepted more than the expected "
                        f"{expected} shapes"
                    )
            else:
                stats.in_span += 1
                match = accepted_here.get(frozenset(prim.items()))
                if match is not None:
                    tree.extra_edges.append((rec.id, match, w, sign))
                    report.decisions.append((g, rec.id, widx, "extra_edge", match))
                else:
                    report.decisions.append((g, rec.id, widx, "in_span", None))
        stats.skipped = len(candidates) - consumed

        if stats.found < expected:
            # an occupation set can extend the span at this grade and still
            # add nothing modulo the symmetric generators, which would leave
            # a set that is no module basis; so its normal form must be new
            # as well, against those of the shapes words found here
            normal_forms = _NormalFormSpan(_CoinvariantReducer(n, d))
            for rec in records:
                if rec.grade == g:
                    normal_forms.extend(rec.poly)
            filled = 0
            for rows in slater_basis(n, d, g):
                chi = antisymmetrize(rows)
                col = columns.setdefault(rows, len(columns))
                matrix.resize(len(columns))
                if normal_forms.extend(chi) and matrix.try_extend({col: 1}):
                    prim, cont, sign = chi.normalized()
                    rid = accept(g, {rows: sign},
                                 Provenance(kind="oracle", rows=rows,
                                            content=cont, sign=sign))
                    stats.found += 1
                    stats.fallback += 1
                    filled += 1
                    for c in _surviving_coordinates(records[rid].slater,
                                                    lowerings):
                        logger.warning("shape %d survives unit lowering on "
                                       "coordinate %d", rid, c)
                        report.annihilation_warnings.append((rid, c))
                    if stats.found == expected:
                        break
            report.fallback_events.append((g, filled))
            logger.info("grade %d: oracle filled %d shapes", g, filled)
            if stats.found < expected:
                raise IncompletenessError(
                    f"grade {g}: {stats.found} of {expected} shapes even "
                    f"with the oracle"
                )
        _log_grade(g, stats, started)

    total = sum(s.found for s in per_grade.values())
    if total != math.factorial(n) ** (d - 1):
        raise IncompletenessError(
            f"found {total} shapes, expected {math.factorial(n) ** (d - 1)}"
        )
    report.elapsed = time.perf_counter() - t0
    return EnumerationResult(n=n, d=d, records=records, tree=tree, report=report)


def _log_grade(g: int, stats: GradeStats, started: float):
    logger.info(
        "grade %d: found %d/%d, tried %d, zero %d, survived %d, in_span %d, "
        "%.2fs", g, stats.found, stats.expected, stats.tried, stats.zero,
        stats.survived, stats.in_span, time.perf_counter() - started)


# --- symmetric-generator monomials ------------------------------------------

def generator_monomials(n: int, d: int, degree: int) -> list[tuple]:
    """Exponent tuples over the d*n elementary-symmetric generators with
    weighted total equal to degree (generator e_j carries weight j)."""
    weights = [j for _ in range(d) for j in range(1, n + 1)]
    out: list[tuple] = []
    exp = [0] * len(weights)

    def rec(i: int, rem: int):
        if i == len(weights):
            if rem == 0:
                out.append(tuple(exp))
            return
        w = weights[i]
        for k in range(rem // w, -1, -1):
            exp[i] = k
            rec(i + 1, rem - k * w)
        exp[i] = 0

    rec(0, degree)
    return out


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
    span the antisymmetric module; tests use it as the reference for the
    normal-form certificate in verify_completeness.  Feeding rows in
    descending leading-monomial order makes most of them land on fresh
    pivot columns, so the elimination stays cheap.
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
    registry = MonomialIndex()
    for mono in sorted(support, reverse=True):
        registry.add(mono)
    matrix = SparseIntMatrix(ncols=len(registry))
    recipes.sort(key=lambda r: (registry.id_of(r[0]), r[1], r[2]))
    for _, _, gexp, rec in recipes:
        prod = _generator_expansion(n, d, gexp) * rec.poly
        matrix.try_extend(coeff_vector(prod, registry))
    return matrix


class _CoinvariantReducer:
    """Normal forms modulo the ideal R+ k[X] generated by the
    positive-degree polynomials symmetric in each coordinate.

    The ideal is a sum of one ideal per coordinate in disjoint variables.
    Under the package's lex order (x_{c,0} > x_{c,1} > ...) the coordinate-c
    part has the Groebner basis h_{k+1}(x_{c,k}, ..., x_{c,n-1}) for
    k = 0..n-1, with leading term x_{c,k}^(k+1); its standard monomials
    are those with exponent of x_{c,k} at most k, n! of them.  So the
    normal form of a monomial is the product of the normal forms of its
    per-coordinate blocks of n exponents.  The basis is monic, so every
    normal form has integer coefficients.
    """

    def __init__(self, n: int, d: int):
        self.n = n
        self.d = d
        # for each k, the monomials of h_{k+1}(x_k..x_{n-1}) other than the
        # leading x_k^(k+1), as exponent blocks: x_k^(k+1) == -sum(tail[k])
        self._tails = []
        for k in range(n):
            tail = []
            for combo in itertools.combinations_with_replacement(
                    range(k, n), k + 1):
                block = [0] * n
                for i in combo:
                    block[i] += 1
                if block[k] != k + 1:
                    tail.append(tuple(block))
            self._tails.append(tail)
        self._blocks: dict[tuple, tuple[tuple[tuple, int], ...]] = {}

    def block(self, a: tuple) -> tuple[tuple[tuple, int], ...]:
        """Normal form of one coordinate's exponent block as
        (standard block, coefficient) pairs."""
        got = self._blocks.get(a)
        if got is not None:
            return got
        k = next((i for i, e in enumerate(a) if e > i), None)
        if k is None:
            got = ((a, 1),)
        else:
            # x^a = x^b * x_k^(k+1); every tail monomial is lex-smaller than
            # x_k^(k+1) and leaves the exponents before k alone, so the
            # recursion descends in lex order and terminates
            b = list(a)
            b[k] -= k + 1
            acc: dict[tuple, int] = {}
            for t in self._tails[k]:
                for std, c in self.block(tuple(x + y for x, y in zip(b, t))):
                    v = acc.get(std, 0) - c
                    if v:
                        acc[std] = v
                    else:
                        del acc[std]
            got = tuple(acc.items())
        self._blocks[a] = got
        return got

    def normal_form(self, p: MPoly) -> MPoly:
        """Reduce one coordinate at a time, merging terms after each, so
        terms that meet on a standard block combine before the next one."""
        n = self.n
        terms = p.terms
        for c in range(self.d):
            lo, hi = c * n, (c + 1) * n
            out: dict[tuple, int] = {}
            for mono, coeff in terms.items():
                head, tail = mono[:lo], mono[hi:]
                for std, k in self.block(mono[lo:hi]):
                    key = head + std + tail
                    v = out.get(key, 0) + coeff * k
                    if v:
                        out[key] = v
                    else:
                        del out[key]
            terms = out
        return MPoly(p.n, p.d, terms)


class _NormalFormSpan:
    """The span of the normal forms added so far, at one grade."""

    def __init__(self, reducer: _CoinvariantReducer):
        self.reducer = reducer
        self.registry = MonomialIndex()
        self.matrix = SparseIntMatrix()

    def extend(self, p: MPoly) -> bool:
        """Add p's normal form; True iff it extends the span."""
        nf = self.reducer.normal_form(p)
        self.registry.extend_from(nf)
        self.matrix.resize(len(self.registry))
        return self.matrix.try_extend(coeff_vector(nf, self.registry))


def verify_completeness(
    n: int, d: int, records: Sequence[ShapeRecord]
) -> list[tuple[int, int, int]]:
    """Certify that records form a basis of the antisymmetric module.

    records must be antisymmetric and homogeneous of their stated grades
    (enumerate_shapes builds them so; `shapeforge verify` checks both
    first).  They form an R-basis iff, at every grade g, there are exactly
    shape_poly(n, d).coeff(g) of them and their normal forms modulo the
    coinvariant ideal are linearly independent (Chevalley plus graded
    Nakayama; see the module docstring), and n!^(d-1) in all.  Returns
    (grade, expected, rank) triples for grades 0..top, where expected is
    the shape-polynomial coefficient and rank that of the normal forms;
    any deficit raises IncompletenessError naming the grade.
    """
    top = degree_D(d, n)
    poly = shape_poly(n, d, Statistics.FERMION)
    by_grade: dict[int, list[ShapeRecord]] = {}
    for rec in records:
        by_grade.setdefault(rec.grade, []).append(rec)
    reducer = _CoinvariantReducer(n, d)
    results = []
    for g in range(top + 1):
        expected = poly.coeff(g)
        here = by_grade.get(g, ())
        if len(here) != expected:
            raise IncompletenessError(
                f"grade {g}: {len(here)} shapes, the shape polynomial "
                f"expects {expected}"
            )
        normal_forms = _NormalFormSpan(reducer)
        for rec in here:
            normal_forms.extend(rec.poly)
        rank = normal_forms.matrix.rank()
        results.append((g, expected, rank))
        if rank != expected:
            raise IncompletenessError(
                f"grade {g}: normal forms have rank {rank} of {expected}"
            )
    total = math.factorial(n) ** (d - 1)
    if len(records) != total:
        raise IncompletenessError(f"{len(records)} shapes, expected {total}")
    return results


# --- pinned notation checks --------------------------------------------------

def verify_sign_conflict(n: int = 3, d: int = 3) -> int:
    """Two lowering routes from the source shape must agree up to an overall
    sign.  Returns that relative sign (-1 for the 3-particle case)."""
    if d < 3 or d % 2 == 0:
        raise ValueError("the route words use three coordinates; d must be odd and >= 3")
    if n < 2:
        raise ValueError("n must be at least 2")
    s = source_shape(n, d)
    target = s.grade() - 5
    route_a = apply_symword(
        SymWord(Word((Letter(2, -1), Letter(0, -2)))),
        apply_symword(SymWord(Word((Letter(1, -1), Letter(0, -1)))), s),
    )
    route_b = apply_symword(
        SymWord(Word((Letter(1, -1), Letter(0, -2)))),
        apply_symword(SymWord(Word((Letter(2, -1), Letter(0, -1)))), s),
    )
    if route_a.is_zero() or route_b.is_zero():
        raise NotationRegressionError("a lowering route collapsed to zero")
    if not (route_a.is_homogeneous() and route_a.grade() == target
            and route_b.grade() == target):
        raise NotationRegressionError(f"lowering routes landed off grade {target}")
    if (route_a + route_b).is_zero():
        return -1
    if (route_a - route_b).is_zero():
        return 1
    raise NotationRegressionError("lowering routes are not proportional")


# --- exact decomposition ------------------------------------------------------

def express_in_basis(
    psi: MPoly, records: Sequence[ShapeRecord], n: int, d: int
) -> list[dict[tuple, Fraction]]:
    """Decompose an antisymmetric homogeneous psi as sum_i Phi_i * Psi_i.

    Returns one Phi per record as {generator exponent tuple: coefficient};
    the decomposition is unique and exact.  psi must live at a grade the
    completeness check covers.

    The solve runs in occupation-set coordinates: psi and every product
    (generator monomial * shape) are antisymmetric, so each is held as its
    Slater coefficients, and a product is built from the shape's by letting
    one elementary symmetric generator at a time act on the occupation sets.
    The products are homogeneous in each coordinate separately, so the
    system splits into one block per multidegree; only the blocks psi
    touches are built and solved.  They are reduced in one
    SparseIntMatrix, each with an extra unit column past the occupation
    sets, and psi's residual reads the coefficients off those columns.

    Records must be a basis (verify_completeness certifies it): then the
    products are independent and the coefficients unique.  psi outside
    their span raises IncompletenessError.

    Records must be antisymmetric, as enumerate_shapes and `shapeforge
    verify` guarantee, and homogeneous in each coordinate; they are not
    re-checked in full.  A record whose term count is not n! times its
    number of occupation sets, or that spans several multidegrees, raises
    ValueError (ShapeRecord.slater runs these guards once per record).
    """
    out: list[dict[tuple, Fraction]] = [{} for _ in records]
    if psi.is_zero():
        return out
    if not psi.is_homogeneous():
        raise ValueError("psi must be homogeneous")
    if not psi.is_antisymmetric():
        raise ValueError("psi must be antisymmetric")
    g = psi.grade()
    if g > degree_D(d, n):
        raise ValueError(f"grade {g} beyond the verified range")

    target_sets = slater_coefficients(psi)
    blocks = {_multidegree(rows) for rows in target_sets}
    shapes: dict[int, tuple[dict[tuple, int], tuple]] = {}
    for idx, rec in enumerate(records):
        if rec.grade > g:
            continue
        coeffs = rec.slater
        shapes[idx] = (coeffs, _multidegree(next(iter(coeffs))))

    # generator monomial * shape, by the same recursion as
    # _generator_expansion; intermediate products are shared between
    # generator monomials, so they are kept for the rest of the call
    products: dict[tuple[int, tuple], dict[tuple, int]] = {}

    def product(idx: int, gexp: tuple) -> dict[tuple, int]:
        got = products.get((idx, gexp))
        if got is None:
            i = next((i for i, e in enumerate(gexp) if e), None)
            if i is None:
                got = shapes[idx][0]
            else:
                reduced = gexp[:i] + (gexp[i] - 1,) + gexp[i + 1:]
                c, j = divmod(i, n)
                got = slater_times_elementary(product(idx, reduced), c, j + 1)
            products[(idx, gexp)] = got
        return got

    # generator e_j in coordinate c raises that coordinate's degree by j
    shifts: dict[int, list[tuple[tuple, tuple]]] = {}
    recipes = []
    support: set[tuple] = set(target_sets)
    for idx, (_, degree) in shapes.items():
        k = g - records[idx].grade
        if k not in shifts:
            shifts[k] = [
                (gexp, tuple(
                    sum(j * e for j, e in enumerate(gexp[c * n:(c + 1) * n], 1))
                    for c in range(d)))
                for gexp in generator_monomials(n, d, k)
            ]
        for gexp, shift in shifts[k]:
            if tuple(map(sum, zip(degree, shift))) not in blocks:
                continue
            prod = product(idx, gexp)
            support.update(prod)
            recipes.append((idx, gexp, prod))
    # columns in descending order of the sets' leading monomials, as the
    # monomial path had them; the leading monomial of Alt(rows) gives the
    # particles the rows in descending order, so compare reversed sets
    column = {
        rows: col for col, rows in enumerate(
            sorted(support, key=lambda rows: rows[::-1], reverse=True))
    }
    recipes = sorted(
        ((min(column[rows] for rows in prod), idx, gexp, prod)
         for idx, gexp, prod in recipes),
        key=lambda r: r[:3],
    )

    # one row per recipe, with a unit column of its own past the
    # occupation sets; psi's residual then holds -x_r in recipe r's unit
    # column and s in psi's, where s * psi == sum_r x_r * recipe_r
    ncols = len(column)
    matrix = SparseIntMatrix()
    for r, (_, _, _, prod) in enumerate(recipes):
        vec = {column[rows]: c for rows, c in prod.items()}
        vec[ncols + r] = 1
        matrix.try_extend(vec)
    target = {column[rows]: c for rows, c in target_sets.items()}
    target[ncols + len(recipes)] = 1
    residual = matrix.reduce(target)
    if min(residual) < ncols:
        raise IncompletenessError("psi is outside the module span")
    scale = residual.pop(ncols + len(recipes))
    for col, x in residual.items():
        _, idx, gexp, _ = recipes[col - ncols]
        out[idx][gexp] = Fraction(-x, scale)
    return out


def assemble(
    records: Sequence[ShapeRecord],
    phis: Sequence[dict[tuple, Fraction]],
    n: int,
    d: int,
) -> MPoly:
    """Evaluate sum_i Phi_i * Psi_i back in the particle variables."""
    acc: dict[tuple, Fraction] = {}
    for rec, phi in zip(records, phis):
        for gexp, coeff in phi.items():
            if not coeff:
                continue
            prod = _generator_expansion(n, d, gexp) * rec.poly
            for m, c in prod.terms.items():
                new = acc.get(m, 0) + coeff * c
                if new:
                    acc[m] = new
                else:
                    acc.pop(m, None)
    for m, c in acc.items():
        if c.denominator != 1:
            raise ValueError(f"non-integer coefficient {c} at {m}")
    return MPoly(n, d, {m: int(c) for m, c in acc.items()})
