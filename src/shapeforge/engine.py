"""Descent enumeration of the antisymmetric module generators.

Every antisymmetric polynomial decomposes uniquely as sum_i Phi_i *
Psi_i where the Phi_i are symmetric (polynomials in the per-coordinate
elementary symmetric generators) and the Psi_i are the shapes: one
generator per grade counted by the shape polynomial.  The enumerator
walks grades downward from the single top-grade generator, applying a
vocabulary of symmetrized lowering words to every shape found so far.
A candidate is a new shape when it is nonzero, is annihilated by every
symmetrized unit lowering, and its class in the sign coinvariants (the
certificate, below) extends those of the shapes already accepted at its
grade; everything is integer arithmetic, so acceptance is never a
judgement call.

The descent runs in occupation-set coordinates.  An antisymmetric
polynomial is a sum of Slater determinants Alt(rows), one per set of n
distinct d-tuples, so every shape and candidate is held as one
coefficient per set instead of n! monomials.  A symmetrized word is a
one-body operator and acts on one row of a set at a time
(shiftops.apply_symword_slater), so antisymmetry holds by construction
and is never re-checked; the class of a candidate comes from its set
coefficients, and so do content and sign.  A record keeps only its
set coefficients (ShapeRecord.slater), and shapes.json is written from them;
a reader that needs monomials expands a record (ShapeRecord.poly) at a time.

Exact rules settle work in advance, so every decision is the one the
full computation would make.  A candidate equal to a shape accepted at
its grade is an extra edge and needs no span test.  A full grade's
classes span its whole sign part, so no later candidate extends them;
the tests assert that every candidate passing the filter after its grade
fills is an extra edge, so a full grade runs no span test.  Unless the
config is exhaustive, the descent leaves a grade as soon as it fills and
counts what it left untried as skipped.  Zero by reach: a word kills a
row below its floor in any coordinate (shiftops.word_floor), so when no
row of the parent reaches the floor the candidate is zero and the word
is never applied.  The filter tests only where the word can fail to commute with
the unit lowering: L_c commutes on a row with any word whose letters on
c all lower, and one-body operators act particle by particle, so for a
parent with L_c Psi = 0, L_c W Psi = W L_c Psi = 0 unless W raises on c.
That needs the parent killed by every unit lowering, as the root and
every word shape are; an oracle fill may survive some (an annihilation
warning), and its children are tested on every coordinate.

If the vocabulary fails to fill a grade, the enumerator falls back to
single Slater determinants, which span the full antisymmetric space at
that grade; it takes one only when its class extends the same span the
descent accepted by, so the result stays a module basis.  Content and
sign again come from the set coefficients.  Fallback activations are
first-class report data.

The certificate forms no module product.  The antisymmetric polynomials
A are a free module over the ring R of polynomials symmetric in each
coordinate separately (Chevalley's theorem: k[X] is free over R, and A
is an R-linear direct summand of it).  By graded Nakayama, homogeneous
antisymmetric polynomials form an R-basis of A iff their images form a
basis of A / R+ A, of dimension shape_poly(n, d).coeff(g) at grade g
(Sturmfels, Algorithms in Invariant Theory, ch. 1).  In characteristic
0 that is the sign part of Q = k[X] / R+ k[X], and it maps isomorphically
onto the sign coinvariants Q / span{tau q + q}.  There sum(a_S * Alt(S))
has the class n! * sum(a_S * pi(NF(x^S))), where pi sorts a standard
monomial's rows with the sign of the sort: one monomial's normal form
per occupation set, modulo the relations pi(NF(tau m)) + pi(m) over
standard m and adjacent transpositions tau.  The certificate: at each
grade, exactly that many shapes with independent classes.  The descent
holds it by construction; verify_completeness checks it afresh on any
record set.  The tests keep the module span's direct rank and the
monomial normal forms as the references for the certificate.

express_in_basis computes the decomposition itself by exact elimination
in the same occupation-set coordinates, reading each shape's set
coefficients from its record (ShapeRecord.slater).  An elementary
symmetric generator e_j acts on a set by raising j-subsets of its rows
(multipoly.slater_times_elementary; Slater-Condon rules; Szabo &
Ostlund, Modern Quantum Chemistry, ch. 2).  R and every shape are
homogeneous in each coordinate separately, so the linear system splits
into independent blocks, one per multidegree; only the products in the
target's blocks are built, and each set's image under a generator is
worked out once per process, in multipoly's occupation-set table, which
every call and every (n, d) share.  Images, products and equations are
keyed by interned set ids, not by tuples of rows.
Each block is solved on its own, transposed: one equation per occupation
set, the block's products as unknowns and the target's coefficients as
the right-hand side, eliminated by exactla's one kernel and
back-substituted over one common denominator.  The shapes must be a
basis, so the products are independent and the solution is unique.
assemble, the way back, builds the same products through the same helper
and table, and maps the ids back to rows once, to expand their sum.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from fractions import Fraction
from operator import ge
from typing import Iterable, NamedTuple, Sequence

from .exactla import SparseIntMatrix
from .multipoly import (
    DimensionMismatchError,
    MPoly,
    OddDimensionRequiredError,
    _sets,
    _sort_with_sign,
    intern_sets,
    slater_basis,
    slater_coefficients,
    slater_normalized,
    slater_times_elementary,
    slater_to_poly,
    source_slater,
)
from .qseries import (
    Statistics,
    degree_D,
    ground_grade,
    shape_entropy,
    shape_poly,
)
from .shiftops import (
    Letter,
    SymWord,
    Word,
    apply_symword_slater,
    word_floor,
)

logger = logging.getLogger(__name__)


class IncompletenessError(RuntimeError):
    """The accepted generators fail to span at some grade."""


class NotationRegressionError(RuntimeError):
    """A pinned operator-notation identity stopped holding."""


# --- vocabulary -----------------------------------------------------------

class EngineConfig(NamedTuple):
    max_letters: int = 4
    max_amount: int = 3
    max_drop: int = 4
    exhaustive: bool = False   # keep scanning a grade after it has filled


def _coordinate_atoms(c: int, config: EngineConfig) -> list[tuple[Letter, ...]]:
    """Net-lowering letter groups acting on a single coordinate: plain
    lowerings and raise-then-lower pairs (the lowering applies first)."""
    atoms = [(Letter(c, -m),) for m in range(1, config.max_amount + 1)]
    for b in range(2, config.max_amount + 1):
        for a in range(1, b):
            atoms.append((Letter(c, a), Letter(c, -b)))
    return atoms


def build_vocabulary(d: int, config: EngineConfig = EngineConfig()
                     ) -> tuple[SymWord, ...]:
    """All words formed by picking one atom for each coordinate of a
    nonempty coordinate subset, concatenated in descending coordinate
    order, within the letter-count and net-drop bounds.  Ordered by
    word_order; single amount-1 lowerings are included but
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
    words.sort(key=word_order)
    return tuple(words)


def word_order(w: SymWord) -> tuple:
    """The descent's candidate order within a parent: the smallest drop
    first, then fewer letters, then by letters."""
    return (-w.net_grade(), len(w.word.letters), w.word.letters)


def _is_single_unit_down(w: SymWord) -> bool:
    ls = w.word.letters
    return len(ls) == 1 and ls[0].step == -1


# --- run artifacts ----------------------------------------------------------

class Provenance(NamedTuple):
    """How a shape was produced: the root, a lowering word applied to a
    parent, or an oracle element.  The shape's Slater coefficients are
    sign * (raw result / content)."""

    kind: str                       # "root" | "word" | "oracle"
    parent: int | None = None
    word: SymWord | None = None
    rows: tuple | None = None       # occupation set for oracle shapes
    content: int = 1
    sign: int = 1


class ShapeRecord(NamedTuple):
    id: int
    grade: int
    # {rows ascending: coefficient}: primitive, positive leading coefficient;
    # None when a loaded term list is no ordered expansion (checked_slater)
    slater: dict[tuple, int] | None
    provenance: Provenance
    entropy: float

    @property
    def poly(self) -> MPoly:
        """slater expanded into the particle variables on every access."""
        if not self.slater:
            raise ValueError(f"record {self.id}: no polynomial to expand")
        rows = next(iter(self.slater))
        return slater_to_poly(self.slater, len(rows), len(rows[0]))

    def check_space(self, n: int, d: int) -> None:
        """DimensionMismatchError unless the record's occupation sets have
        n rows of d entries, read off one set."""
        rows = next(iter(self.slater or ()), None)
        if rows is not None and (len(rows), len(rows[0])) != (n, d):
            raise DimensionMismatchError(
                f"record {self.id} is over (n={len(rows)},d={len(rows[0])}), "
                f"not (n={n},d={d})")

    def checked_slater(self) -> dict[tuple, int]:
        """slater, once it is known to be antisymmetric and homogeneous in
        each coordinate; otherwise ValueError."""
        if self.slater is None:
            raise ValueError(f"record {self.id}: polynomial is not "
                             f"antisymmetric or its terms are out of order")
        if len({_multidegree(rows) for rows in self.slater}) != 1:
            raise ValueError(f"record {self.id}: polynomial is not "
                             f"homogeneous in each coordinate")
        return self.slater


def _multidegree(rows: tuple) -> tuple:
    """Degree in each coordinate of Alt(rows)."""
    return tuple(map(sum, zip(*rows)))


class BranchingTree(NamedTuple):
    """Built once, when the descent returns."""

    root: int
    edges: dict[int, tuple[int, SymWord]]              # child -> (parent, word)
    extra_edges: list[tuple[int, int, SymWord, int]]   # (from, to, word, sign)


class GradeStats(NamedTuple):
    """One grade's counters, built once when the descent leaves the grade.
    tried = zero + survived + in_span + the grade's word shapes; skipped
    counts the candidates the grade left untried once it filled."""

    expected: int
    found: int = 0
    tried: int = 0
    zero: int = 0
    # rejected: not annihilated by every unit lowering
    survived: int = 0
    in_span: int = 0
    # zero by reach: settled without applying the word
    pruned: int = 0
    skipped: int = 0
    fallback: int = 0


class RunReport(NamedTuple):
    """Built once, when the descent returns.  GradeStats counts every
    candidate's outcome; decisions holds only the word acceptances, as
    (grade, parent id, word index, "accepted", shape id), kept for the
    benchmark's tracer (perfbench/spans.py)."""

    vocabulary_size: int
    per_grade: dict[int, GradeStats]
    decisions: list[tuple]
    annihilation_warnings: list[tuple[int, int]]   # (shape id, coordinate)
    elapsed: float


class EnumerationResult(NamedTuple):
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
                           lowerings: Sequence[SymWord],
                           coordinates: Iterable[int] | None = None):
    """Yield each of the given coordinates (all by default) whose
    symmetrized unit lowering leaves the polynomial with these Slater
    coefficients nonzero.  Every shape vanishes under all of them: the
    descent rejects candidates that survive one, and the root must not;
    only oracle fills may survive (they trade the invariant for guaranteed
    span coverage), which is reported as a warning.  The descent tests a
    candidate only where its word raises (_raised_coordinates says why),
    or on every coordinate when its parent is an oracle fill."""
    if coordinates is None:
        coordinates = range(len(lowerings))
    for c in coordinates:
        if apply_symword_slater(lowerings[c], coeffs):
            yield c


def _raised_coordinates(w: SymWord) -> tuple[int, ...]:
    """The coordinates on which w has a raising letter.

    On one row, the unit lowering on c commutes with any word whose
    letters on c all lower (and trivially with one that has none there);
    a raise-then-lower atom (a, -b) differs from it only on rows with
    exponent b.  Symmetrized one-body operators act particle by particle,
    so for Psi killed by the unit lowering L_c and c not listed here,
    L_c W Psi = W L_c Psi = 0.  Every parent but an oracle fill is killed
    by all the unit lowerings, so its children need testing only here."""
    return tuple(sorted({l.coordinate for l in w.word.letters if l.step > 0}))


def _maximal_rows(coeffs: dict[tuple, int]) -> list[tuple]:
    """The distinct rows of these occupation sets that no other row
    dominates componentwise.  A word kills every row below its floor
    (shiftops.word_floor), so it kills every row iff it kills these."""
    kept: list[tuple] = []
    rows = {row for occupied in coeffs for row in occupied}
    # a row that dominates another has the larger sum, so comes first
    for row in sorted(rows, key=sum, reverse=True):
        if not any(all(map(ge, top, row)) for top in kept):
            kept.append(row)
    return kept


def _reaches(rows: Sequence[tuple], floor: tuple[int, ...]) -> bool:
    """True iff some row is at or above the floor in every coordinate."""
    return any(all(map(ge, row, floor)) for row in rows)


def enumerate_shapes(
    n: int, d: int, config: EngineConfig = EngineConfig()
) -> EnumerationResult:
    """Enumerate all n!^(d-1) shapes for n particles in odd dimension d,
    certified as they are accepted; IncompletenessError if a grade stays
    short even with the oracle."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if d % 2 == 0:
        raise OddDimensionRequiredError(f"enumeration needs odd d, got {d}")
    t0 = time.perf_counter()
    poly = shape_poly(n, d, Statistics.FERMION)
    top = degree_D(d, n)
    bottom = ground_grade(d, n)
    vocab = build_vocabulary(d, config)
    # each word with its floor and the coordinates where it can fail to
    # commute with the unit lowering, worked out once per call
    by_net: dict[int, list[tuple[int, SymWord, tuple, tuple]]] = {}
    for widx, w in enumerate(vocab):
        if _is_single_unit_down(w):
            continue
        by_net.setdefault(w.net_grade(), []).append(
            (widx, w, word_floor(w, d), _raised_coordinates(w)))

    per_grade = {top: GradeStats(expected=1, found=1)}
    decisions: list[tuple] = []
    warnings: list[tuple[int, int]] = []
    edges: dict[int, tuple[int, SymWord]] = {}
    extra_edges: list[tuple[int, int, SymWord, int]] = []

    records = [ShapeRecord(0, top, source_slater(n, d),
                           Provenance(kind="root"), shape_entropy(n, d, top))]
    lowerings = [SymWord(Word((Letter(c, -1),))) for c in range(d)]
    survivor = next(_surviving_coordinates(records[0].slater, lowerings), None)
    if survivor is not None:
        raise AssertionError(
            f"the source shape survives unit lowering on coordinate {survivor}"
        )
    # each record's maximal rows, for zero by reach (_reaches)
    tops = [_maximal_rows(records[0].slater)]
    _log_grade(top, per_grade[top], t0)

    def accept(g: int, prim: dict[tuple, int], provenance: Provenance) -> int:
        rid = len(records)
        records.append(ShapeRecord(rid, g, prim, provenance,
                                   shape_entropy(n, d, g)))
        tops.append(_maximal_rows(prim))
        return rid

    reducer = _CoinvariantReducer(n)
    for g in range(top - 1, bottom - 1, -1):
        started = time.perf_counter()
        expected = poly.coeff(g)
        if expected == 0:
            per_grade[g] = GradeStats(expected=0)
            _log_grade(g, per_grade[g], started)
            continue
        found = tried = zero = survived = in_span = pruned = fallback = 0
        # the classes of this grade's shapes in the sign coinvariants; once
        # there are expected of them they span the grade's whole sign part,
        # so no later candidate extends them
        classes = _NormalFormSpan(reducer)
        # accepted shapes at this grade by their Slater coefficients: a
        # candidate that reproduces one is an extra edge, with no span test
        accepted_here: dict[frozenset, int] = {}
        # candidates by parent id, then by word; a shape accepted during the
        # scan sits at grade g, so it is never a parent at its own grade
        candidates = ((rec, entry) for rec in records if rec.grade > g
                      for entry in by_net.get(g - rec.grade, ()))
        for rec, (widx, w, floor, raised) in candidates:
            tried += 1
            if not _reaches(tops[rec.id], floor):
                # the word kills every row of the parent
                zero += 1
                pruned += 1
                continue
            chi = apply_symword_slater(w, rec.slater)
            if not chi:
                zero += 1
                continue
            # an oracle fill may survive unit lowerings: test everywhere
            tested = None if rec.provenance.kind == "oracle" else raised
            if next(_surviving_coordinates(chi, lowerings, tested),
                    None) is not None:
                survived += 1
                continue
            prim, cont, sign = slater_normalized(chi)
            key = frozenset(prim.items())
            match = accepted_here.get(key)
            if match is None and classes.extend(prim):
                rid = accept(g, prim, Provenance(kind="word", parent=rec.id,
                                                 word=w, content=cont,
                                                 sign=sign))
                edges[rid] = (rec.id, w)
                accepted_here[key] = rid
                found += 1
                decisions.append((g, rec.id, widx, "accepted", rid))
                if found == expected and not config.exhaustive:
                    break
            else:
                in_span += 1
                if match is not None:
                    extra_edges.append((rec.id, match, w, sign))
        # what the one stream has left once the grade filled
        skipped = sum(1 for _ in candidates)

        if found < expected:
            # a set is taken only when its class extends the same span the
            # descent accepted by: a new polynomial may add no new class
            for rows in slater_basis(n, d, g):
                if classes.extend({rows: 1}):
                    prim, cont, sign = slater_normalized({rows: 1})
                    rid = accept(g, prim,
                                 Provenance(kind="oracle", rows=rows,
                                            content=cont, sign=sign))
                    found += 1
                    fallback += 1
                    for c in _surviving_coordinates(prim, lowerings):
                        logger.warning("shape %d survives unit lowering on "
                                       "coordinate %d", rid, c)
                        warnings.append((rid, c))
                    if found == expected:
                        break
            logger.info("grade %d: oracle filled %d shapes", g, fallback)
            if found < expected:
                raise IncompletenessError(
                    f"grade {g}: {found} of {expected} shapes even "
                    f"with the oracle"
                )
        per_grade[g] = GradeStats(expected, found, tried, zero, survived,
                                  in_span, pruned, skipped, fallback)
        _log_grade(g, per_grade[g], started)

    tree = BranchingTree(root=0, edges=edges, extra_edges=extra_edges)
    report = RunReport(len(vocab), per_grade, decisions, warnings,
                       time.perf_counter() - t0)
    return EnumerationResult(n=n, d=d, records=records, tree=tree, report=report)


def _log_grade(g: int, stats: GradeStats, started: float):
    logger.info(
        "grade %d: found %d/%d, tried %d, zero %d, survived %d, in_span %d, "
        "pruned %d, %.2fs", g, stats.found, stats.expected, stats.tried,
        stats.zero, stats.survived, stats.in_span, stats.pruned,
        time.perf_counter() - started)


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


def _rising_monomials(per_rise: Sequence[list[tuple]], degree: tuple,
                      block: tuple) -> Iterable[tuple]:
    """Generator monomials taking multidegree degree to block, where
    per_rise[k] is generator_monomials(n, 1, k): e_j raises its coordinate
    by j, so coordinate c needs a part of weight block[c] - degree[c]."""
    rise = [b - a for a, b in zip(degree, block)]
    if min(rise) >= 0:
        for parts in itertools.product(*(per_rise[k] for k in rise)):
            yield sum(parts, ())


def _product(coeffs: dict[int, int], gexp: tuple, n: int,
             products: dict) -> dict[int, int]:
    """The generator monomial gexp times sum(coeff * Alt(_sets[i])) on
    interned sets, one elementary symmetric generator at a time
    (slater_times_elementary).  products holds this shape's products by
    monomial; it fills as they are met, for one call."""
    got = products.get(gexp)
    if got is None:
        i = next((i for i, e in enumerate(gexp) if e), None)
        if i is None:
            got = coeffs
        else:
            reduced = gexp[:i] + (gexp[i] - 1,) + gexp[i + 1:]
            c, j = divmod(i, n)
            got = slater_times_elementary(
                _product(coeffs, reduced, n, products), c, j + 1)
        products[gexp] = got
    return got


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

    def __init__(self, n: int):
        self.n = n
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

    def project(self, out: dict, blocks: Iterable[tuple], coeff: int):
        """Add coeff * pi(NF(x^blocks)) to out, for the monomial with these
        exponent blocks, one per coordinate.  pi takes a standard monomial
        to its particles' rows, sorted, times the sign of the sort (0 when
        two rows are equal).  Entries that cancel stay, as zeros."""
        for combo in itertools.product(*map(self.block, blocks)):
            stds, ks = zip(*combo)
            rows = list(zip(*stds))
            k = _sort_with_sign(rows) * coeff * math.prod(ks)
            if k:
                out[tuple(rows)] = out.get(tuple(rows), 0) + k

    def relations(self, degree: tuple) -> Iterable[dict[tuple, int]]:
        """pi(NF(tau m)) + pi(m) over the standard monomials m of this
        multidegree and adjacent transpositions tau = (i, i+1), skipping
        the zero ones: those where tau m is standard, as it is unless some
        coordinate of m has exponent i + 1 at particle i + 1."""
        per_coordinate = [
            [b for b in itertools.product(*map(range, range(1, self.n + 1)))
             if sum(b) == k] for k in degree]
        for m in itertools.product(*per_coordinate):
            for i in range(self.n - 1):
                if any(b[i + 1] > i for b in m):
                    rel: dict[tuple, int] = {}
                    self.project(rel, m, 1)
                    self.project(rel, [b[:i] + (b[i + 1], b[i]) + b[i + 2:]
                                       for b in m], 1)
                    yield rel


class _NormalFormSpan:
    """The span of the classes added so far in the sign coinvariants, at
    one grade, with one column per occupation set: sum(a_S * Alt(S)) has
    the class n! * sum(a_S * pi(NF(x^S))), row a of S on particle a (see
    the module docstring).  A multidegree's relations enter before the
    first class that reaches it, so the classes that extend the span are
    independent modulo the relations: their count is the span's rank."""

    def __init__(self, reducer: _CoinvariantReducer):
        self.reducer = reducer
        self.cols: dict[tuple, int] = {}
        self.degrees: set[tuple] = set()
        self.matrix = SparseIntMatrix()

    def _vector(self, cls: dict[tuple, int]) -> dict[int, int]:
        vec = {}
        for rows, c in cls.items():
            degree = _multidegree(rows) if rows not in self.cols else None
            if degree is not None and degree not in self.degrees:
                self.degrees.add(degree)
                for rel in self.reducer.relations(degree):
                    self.matrix.try_extend(self._vector(rel))
            vec[self.cols.setdefault(rows, len(self.cols))] = c
        return vec

    def extend(self, coeffs: dict[tuple, int]) -> bool:
        """Add the class of sum(a_S * Alt(S)) for these Slater coefficients
        a_S; True iff it extends the span."""
        cls: dict[tuple, int] = {}
        for rows, a in coeffs.items():
            self.reducer.project(cls, zip(*rows), a)
        return self.matrix.try_extend(self._vector(cls))


def verify_completeness(
    n: int, d: int, records: Sequence[ShapeRecord]
) -> list[tuple[int, int, int]]:
    """Certify that records form a basis of the antisymmetric module.

    records must be antisymmetric and homogeneous of their stated grades
    (enumerate_shapes builds them so; in `shapeforge verify` each record's
    replay guarantees both).  They form an R-basis iff, at every grade g,
    there are exactly shape_poly(n, d).coeff(g) of them and their normal
    forms modulo the coinvariant ideal are linearly independent (Chevalley
    plus graded Nakayama; see the module docstring), and n!^(d-1) in all.
    Returns (grade, expected, rank) triples for grades 0..top, where
    expected is the shape-polynomial coefficient and rank that of the
    normal forms; any deficit raises IncompletenessError naming the grade.
    """
    top = degree_D(d, n)
    poly = shape_poly(n, d, Statistics.FERMION)
    by_grade: dict[int, list[ShapeRecord]] = {}
    for rec in records:
        by_grade.setdefault(rec.grade, []).append(rec)
    reducer = _CoinvariantReducer(n)
    results = []
    for g in range(top + 1):
        expected = poly.coeff(g)
        here = by_grade.get(g, ())
        if len(here) != expected:
            raise IncompletenessError(
                f"grade {g}: {len(here)} shapes, the shape polynomial "
                f"expects {expected}"
            )
        classes = _NormalFormSpan(reducer)
        rank = sum(classes.extend(rec.slater) for rec in here)
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
    s = source_slater(n, d)
    target = sum(map(sum, next(iter(s)))) - 5
    route_a = apply_symword_slater(
        SymWord(Word((Letter(2, -1), Letter(0, -2)))),
        apply_symword_slater(SymWord(Word((Letter(1, -1), Letter(0, -1)))), s),
    )
    route_b = apply_symword_slater(
        SymWord(Word((Letter(1, -1), Letter(0, -2)))),
        apply_symword_slater(SymWord(Word((Letter(2, -1), Letter(0, -1)))), s),
    )
    if not route_a or not route_b:
        raise NotationRegressionError("a lowering route collapsed to zero")
    # the grade of Alt(rows) is the sum of its rows' exponents
    if any(sum(map(sum, rows)) != target for rows in (*route_a, *route_b)):
        raise NotationRegressionError(f"lowering routes landed off grade {target}")
    if route_a == {rows: -c for rows, c in route_b.items()}:
        return -1
    if route_a == route_b:
        return 1
    raise NotationRegressionError("lowering routes are not proportional")


# --- exact decomposition ------------------------------------------------------

def express_in_basis(
    psi: MPoly, records: Sequence[ShapeRecord], n: int, d: int
) -> list[dict[tuple, Fraction]]:
    """Decompose an antisymmetric homogeneous psi as sum_i Phi_i * Psi_i.

    Returns one Phi per record as {generator exponent tuple: coefficient};
    the decomposition is unique and exact, at every grade: the certificate
    makes the records an R-basis of the whole module (graded Nakayama),
    above the top grade too.

    The solve runs in occupation-set coordinates: psi and every product
    (generator monomial * shape) are antisymmetric, so each is held as its
    Slater coefficients, and a product is built from the shape's by letting
    one elementary symmetric generator at a time act on the occupation sets,
    each interned as an integer id when first met.  The products are
    homogeneous in each coordinate separately, so the system splits into one
    block per multidegree; only the products in psi's blocks are built, and
    each set's image under a generator is worked out once per process
    (multipoly's occupation-set table), so later calls reuse it.  Each
    block is one SparseIntMatrix: a row per occupation set, a column per
    product (the unknowns, sparsest product first) and psi's coefficient on
    that set in the column past them.  Forward elimination takes the
    sparsest equations first, and SparseIntMatrix.solve back-substitutes.

    Records must be a basis (verify_completeness certifies it): then the
    products are independent and the coefficients unique.  psi outside
    their span leaves an equation 0 == b with b != 0 and raises
    IncompletenessError.

    Records must be antisymmetric and homogeneous in each coordinate, as
    enumerate_shapes and `shapeforge verify` guarantee.  A record that is
    not and a psi that is not antisymmetric raise ValueError;
    ShapeRecord.checked_slater checks each record the solve reads, and
    slater_coefficients psi's antisymmetry as it reads it.  A psi or any
    record over other variables than (n, d) raises DimensionMismatchError
    (ShapeRecord.check_space for the records).
    """
    psi._check_same_space(MPoly.zero(n, d))
    for rec in records:
        rec.check_space(n, d)
    out: list[dict[tuple, Fraction]] = [{} for _ in records]
    if psi.is_zero():
        return out
    if not psi.is_homogeneous():
        raise ValueError("psi must be homogeneous")
    try:
        target_sets = slater_coefficients(psi)
    except ValueError:
        raise ValueError("psi must be antisymmetric") from None
    g = psi.grade()

    targets: dict[tuple, dict[int, int]] = {}
    for sid, c in intern_sets(target_sets).items():
        targets.setdefault(_multidegree(_sets[sid]), {})[sid] = c
    # only the generator monomials that take a shape into one of psi's blocks
    per_rise = [generator_monomials(n, 1, k) for k in range(g + 1)]
    recipes: dict[tuple, list] = {block: [] for block in targets}
    for idx, rec in enumerate(records):
        if rec.grade > g:
            continue
        coeffs = intern_sets(rec.checked_slater())
        degree = _multidegree(_sets[next(iter(coeffs))])
        products: dict[tuple, dict] = {}
        for block, here in recipes.items():
            for gexp in _rising_monomials(per_rise, degree, block):
                here.append((idx, gexp, _product(coeffs, gexp, n, products)))

    for block, target in targets.items():
        # one equation per occupation set, one unknown per product and the
        # right-hand side in the column past them; sparsest products and
        # sparsest equations first keep the echelon small
        here = sorted(recipes[block], key=lambda r: len(r[2]))
        rhs = len(here)
        equations = {sid: {rhs: c} for sid, c in target.items()}
        for col, (_, _, prod) in enumerate(here):
            for sid, c in prod.items():
                equations.setdefault(sid, {})[col] = c
        matrix = SparseIntMatrix()
        for eq in sorted(equations.values(), key=len):
            matrix.try_extend(eq)
        try:
            num, den = matrix.solve(rhs)
        except ValueError:
            raise IncompletenessError("psi is outside the module span") from None
        for col, x in num.items():
            idx, gexp, _ = here[col]
            out[idx][gexp] = Fraction(x, den)
    return out


def assemble(
    records: Sequence[ShapeRecord],
    phis: Sequence[dict[tuple, Fraction]],
    n: int,
    d: int,
) -> MPoly:
    """Evaluate sum_i Phi_i * Psi_i back in the particle variables: the
    products of express_in_basis, summed on Slater coefficients.  One Phi
    per record, keyed by exponent tuples of length n * d, or ValueError;
    a record over other (n, d) raises DimensionMismatchError."""
    acc: dict[int, Fraction] = {}
    for rec, phi in zip(records, phis, strict=True):
        rec.check_space(n, d)
        if any(len(gexp) != n * d for gexp in phi):
            raise ValueError(f"phi {rec.id}: exponents not of length {n * d}")
        terms = [(gexp, coeff) for gexp, coeff in phi.items() if coeff]
        coeffs = intern_sets(rec.checked_slater()) if terms else {}
        products: dict[tuple, dict] = {}
        for gexp, coeff in terms:
            for sid, c in _product(coeffs, gexp, n, products).items():
                new = acc.get(sid, 0) + coeff * c
                if new:
                    acc[sid] = new
                else:
                    del acc[sid]
    for sid, c in acc.items():
        if c.denominator != 1:
            raise ValueError(f"non-integer coefficient {c} at {_sets[sid]}")
    return slater_to_poly({_sets[sid]: int(c) for sid, c in acc.items()}, n, d)
