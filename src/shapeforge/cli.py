"""Command-line surface: polynomial tables, shape generation, artifact
verification, and state counting.

Exit codes: 0 success, 2 invalid arguments, unreadable or malformed
input, an unwritable output directory or a closed stdout, 3 a grade that
the descent cannot fill with certified shapes, 4 state counts that
disagree with direct enumeration (`count --oracle`), 5 artifact
verification failure.  Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

from .engine import (
    EngineConfig,
    IncompletenessError,
    enumerate_shapes,
    verify_completeness,
    word_order,
)
from .multipoly import slater_basis, slater_normalized, source_slater
from .qseries import (Statistics, degree_D, shape_entropy, shape_poly,
                      state_count_series)
from .serialize import (
    ShapeDocument,
    document_from_result,
    document_pieces,
    document_to_dot,
    loads_document,
    report_to_text,
)
from .shiftops import apply_symword_slater

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3
EXIT_MISMATCH = 4
EXIT_VERIFY = 5
# a d, a shape-polynomial degree d*N(N-1)/2 or a series truncation past any
# list index sizes something that cannot be formed, so it is refused first
_TOO_LARGE = "N, d or the grade too large to form: past any list index"


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapeforge",
        description="Exact shape enumeration for noninteracting fermions",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="log progress details to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    dims = argparse.ArgumentParser(add_help=False)
    dims.add_argument("-N", type=int, required=True, help="particle count")
    dims.add_argument("-d", type=int, required=True, help="dimension")

    p = sub.add_parser("poly", parents=[dims], help="print a shape polynomial")
    p.set_defaults(run=cmd_poly)
    p.add_argument("--boson", action="store_true",
                   help="boson statistics (default: fermion)")

    g = sub.add_parser("gen", parents=[dims],
                       help="enumerate shapes and write artifacts")
    g.set_defaults(run=cmd_gen)
    g.add_argument("--out", default=".", help="output directory")
    g.add_argument("--max-letters", type=int, default=4)
    g.add_argument("--max-amount", type=int, default=3)
    g.add_argument("--max-drop", type=int, default=4)
    g.add_argument("--exhaustive", action="store_true",
                   help="keep scanning a grade after it has filled")
    # a no-op (the descent certifies as it accepts), hidden from --help; kept
    # only for the benchmark's descent workload, which still passes it
    g.add_argument("--no-verify", action="store_true", help=argparse.SUPPRESS)

    v = sub.add_parser("verify", help="re-check a shapes.json artifact")
    v.set_defaults(run=cmd_verify)
    v.add_argument("path", help="path to shapes.json")

    c = sub.add_parser("count", parents=[dims],
                       help="print state counts per grade")
    c.set_defaults(run=cmd_count)
    c.add_argument("-g", "--max-grade", type=int, required=True)
    c.add_argument("--oracle", action="store_true",
                   help="cross-check each grade by direct enumeration")
    return parser


# --- poly --------------------------------------------------------------------

def cmd_poly(args) -> int:
    if args.N < 0:
        return _fail_usage("N must be nonnegative")
    if args.d < 1:
        return _fail_usage("d must be positive")
    if max(degree_D(args.d, args.N), args.d) > sys.maxsize:
        return _fail_usage(_TOO_LARGE)
    stats = Statistics.BOSON if args.boson else Statistics.FERMION
    p = shape_poly(args.N, args.d, stats)
    print(p)
    print(json.dumps(list(p.coeffs)))
    return EXIT_OK


# --- gen ---------------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.N < 1:
        return _fail_usage("N must be at least 1")
    if args.d < 1 or args.d % 2 == 0:
        return _fail_usage("generation requires odd d")
    if max(degree_D(args.d, args.N), args.d) > sys.maxsize:
        return _fail_usage(_TOO_LARGE)
    if min(args.max_letters, args.max_amount, args.max_drop) < 1:
        return _fail_usage("vocabulary bounds must be positive")
    config = EngineConfig(
        max_letters=args.max_letters,
        max_amount=args.max_amount,
        max_drop=args.max_drop,
        exhaustive=args.exhaustive,
    )
    try:
        result = enumerate_shapes(args.N, args.d, config)
    except IncompletenessError as exc:
        print(f"enumeration incomplete: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE

    # the descent has filled each grade to its count with certified shapes,
    # or raised before anything is written: a failed run leaves no artifact
    # behind that looks like a finished one
    doc = document_from_result(result)
    # each artifact goes to a temp file first and is renamed into place,
    # shapes.json last, so no failure leaves a partial or stray shapes.json;
    # shapes.json is written piece by piece, never held whole
    texts = {
        "tree.dot": [document_to_dot(doc)],
        "report.txt": [report_to_text(result)],
        "shapes.json": document_pieces(doc),
    }
    out = Path(args.out)
    temps = {name: out / f".{name}.tmp" for name in texts}
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, pieces in texts.items():
            with open(temps[name], "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        for name, tmp in temps.items():
            os.replace(tmp, out / name)
    except OSError as exc:
        return _fail_usage(f"cannot write artifacts to {out}: {exc}")
    finally:
        for tmp in temps.values():
            if tmp.is_file():
                tmp.unlink()
    print(
        f"{len(result.records)} shapes, {len(result.tree.edges)} tree "
        f"edges, {len(result.tree.extra_edges)} extra edges -> {out}"
    )
    return EXIT_OK


# --- verify ------------------------------------------------------------------

def _check_counts(doc: ShapeDocument) -> str | None:
    n, d = doc.n, doc.d
    if n < 1 or d < 1 or d % 2 == 0:
        return f"invalid dimensions n={n} d={d}"
    # n!^(d-1) >= n^(d-1), so an n or d whose n^(d-1) already exceeds the
    # count fails at once: a malformed one can make n!^(d-1) too large to
    # form.  n!^0 is 1 whatever n is, and needs no factorial
    count = len(doc.records)
    if (n > 1 and d - 1 > math.log(count + 1) / math.log(n)
            or count != (math.factorial(n) ** (d - 1) if d > 1 else 1)):
        return (f"shape count {count} != n!^(d-1) for n={n} d={d}; "
                f"empty or truncated artifact")
    if max(degree_D(d, n), d) > sys.maxsize:
        return f"n={n} d={d} too large to form: past any list index"
    coeffs = list(shape_poly(n, d, Statistics.FERMION).coeffs)
    if doc.shape_poly != coeffs:
        return "stored shape polynomial differs from the recursion"
    histogram: dict[int, int] = {}
    for rec in doc.records:
        histogram[rec.grade] = histogram.get(rec.grade, 0) + 1
    if histogram != {g: c for g, c in enumerate(coeffs) if c}:
        return "grade histogram differs from the shape polynomial"
    return None


# the provenance fields gen writes for a record of each kind; the others
# are null
_PROVENANCE_FIELDS = {"root": (), "word": ("parent", "word"),
                      "oracle": ("rows",)}


def _check_records(doc: ShapeDocument) -> str | None:
    """Each record holds its kind's provenance fields, comes in gen's order
    and is the replay of its provenance, in occupation-set coordinates: the
    source shape, a word acting on the parent's Slater coefficients as in
    the descent, or one determinant.  A nonzero replay is antisymmetric,
    homogeneous in each coordinate and canonical by construction, and each
    parent is checked before its children, so the one comparison decides
    the polynomial; its grade and entropy follow."""
    n, d = doc.n, doc.d
    previous = ()
    for idx, rec in enumerate(doc.records):
        tag = f"record {rec.id}"
        if rec.id != idx:
            return f"{tag}: ids are not dense and ascending"
        pv = rec.provenance
        if not isinstance(pv.kind, str) or pv.kind not in _PROVENANCE_FIELDS:
            return f"{tag}: unknown provenance kind {pv.kind!r}"
        held = tuple(f for f in ("parent", "word", "rows")
                     if getattr(pv, f) is not None)
        if held != _PROVENANCE_FIELDS[pv.kind]:
            return (f"{tag}: {pv.kind} provenance has fields {list(held)}, "
                    f"gen writes {list(_PROVENANCE_FIELDS[pv.kind])}")
        # the key orders records as gen writes them: grade down, then the
        # root, the word records in the descent's candidate order and the
        # oracle fills by rows, each listed ascending, as slater_basis does
        if pv.kind == "root":
            key, raw = (-rec.grade, -1), source_slater(n, d)
        elif pv.kind == "word":
            if not 0 <= pv.parent < rec.id:
                return f"{tag}: parent id out of range"
            key = (-rec.grade, 0, pv.parent, word_order(pv.word))
            raw = apply_symword_slater(pv.word, doc.records[pv.parent].slater)
        else:
            key, raw = (-rec.grade, 1, pv.rows), {pv.rows: 1}
        if key <= previous:
            return f"{tag}: out of gen's order or listed twice"
        previous = key
        if not raw or slater_normalized(raw) != (rec.slater, pv.content,
                                                 pv.sign):
            return f"{tag}: replay does not reproduce the polynomial"
        # Alt(rows) is homogeneous of grade sum(rows)
        if sum(map(sum, next(iter(rec.slater)))) != rec.grade:
            return f"{tag}: polynomial grade differs from the stated grade"
        # _check_counts has matched every grade to a shape-polynomial term
        if rec.entropy != shape_entropy(n, d, rec.grade):
            return f"{tag}: entropy differs from the log of its grade's count"
    return None


def _check_tree(doc: ShapeDocument) -> str | None:
    """The tree's root is the one root record, its edges are exactly the
    word records' (parent, word) provenance, and the extra edges come in
    gen's order, each (parent, word) pair apart from the tree edges', and
    replay with their signs, in occupation-set coordinates like the
    records."""
    roots = [rec.id for rec in doc.records if rec.provenance.kind == "root"]
    if roots != [doc.tree.root]:
        return "tree root is not the root record"
    if doc.tree.edges != {rec.id: (rec.provenance.parent, rec.provenance.word)
                          for rec in doc.records
                          if rec.provenance.kind == "word"}:
        return "tree edges differ from the word records' provenance"
    # _check_records has made the ids dense
    count = len(doc.records)
    tree_pairs = set(doc.tree.edges.values())
    previous = ()
    for src, dst, word, sign in doc.tree.extra_edges:
        if not (0 <= src < count and 0 <= dst < count):
            return f"extra edge ({src}, {dst}) references unknown ids"
        # strictly in the descent's order: grade down, parent, vocabulary;
        # the descent tries each (parent, word) pair once, so no extra edge
        # restates a tree edge
        key = (-doc.records[dst].grade, src, word_order(word))
        if key <= previous or (src, word) in tree_pairs:
            return f"extra edge ({src}, {dst}) is out of order or listed twice"
        previous = key
        raw = apply_symword_slater(word, doc.records[src].slater)
        # slater_normalized gives (primitive coefficients, content, sign)
        if not raw or slater_normalized(raw)[::2] != (
                doc.records[dst].slater, sign):
            return f"extra edge ({src}, {dst}): replay does not match"
    return None


def _check_certificate(doc: ShapeDocument) -> str | None:
    try:
        verify_completeness(doc.n, doc.d, doc.records)
    except IncompletenessError as exc:
        return f"completeness: {exc}"
    return None


_CHECKS = (
    ("counts and histogram", _check_counts),
    ("record replay", _check_records),
    ("tree and extra edges", _check_tree),
    ("certificate", _check_certificate),
)


def _verify_document(doc: ShapeDocument) -> str | None:
    """Runs the checks in order, each on what the ones before it passed,
    and logs each with its time.  Returns a failure description, or None
    when everything passes."""
    for label, check in _CHECKS:
        started = time.perf_counter()
        failure = check(doc)
        logger.info("verify %s: %s, %.2fs", label,
                    "ok" if failure is None else "failed",
                    time.perf_counter() - started)
        if failure is not None:
            return failure
    return None


def cmd_verify(args) -> int:
    started = time.perf_counter()
    try:
        with open(args.path, encoding="utf-8") as fh:
            doc = loads_document(fh)
    except (OSError, KeyError, ValueError, RecursionError) as exc:
        return _fail_usage(f"cannot load {args.path}: {exc}")
    logger.info("verify load: %d shapes, %.2fs", len(doc.records),
                time.perf_counter() - started)
    failure = _verify_document(doc)
    if failure is not None:
        print(f"verify failed: {failure}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"verified {len(doc.records)} shapes for n={doc.n} d={doc.d}")
    return EXIT_OK


# --- count -------------------------------------------------------------------

def cmd_count(args) -> int:
    if args.N < 1:
        return _fail_usage("N must be at least 1")
    if args.d < 1:
        return _fail_usage("d must be positive")
    if args.max_grade < 0:
        return _fail_usage("max grade must be nonnegative")
    if max(degree_D(args.d, args.N), args.d, args.max_grade) > sys.maxsize:
        return _fail_usage(_TOO_LARGE)
    series = state_count_series(args.N, args.d, args.max_grade)
    mismatch = False
    for g in range(args.max_grade + 1):
        coeff = series.coeff(g)
        if args.oracle:
            oracle = len(slater_basis(args.N, args.d, g))
            print(f"{g:4d}  {coeff}  {oracle}")
            if oracle != coeff:
                mismatch = True
        else:
            print(f"{g:4d}  {coeff}")
    if mismatch:
        print("count mismatch against direct enumeration", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        code = args.run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the
        # interpreter's exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail_usage("cannot write to stdout: the reader closed it")
    return code


if __name__ == "__main__":
    sys.exit(main())
