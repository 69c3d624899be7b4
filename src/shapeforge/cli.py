"""Command-line surface: polynomial tables, shape generation, artifact
verification, and state counting.

Exit codes: 0 success, 2 invalid arguments, unreadable or malformed
input or an unwritable output directory, 3 a grade that the descent
cannot fill with certified shapes, 4 histogram mismatch (`gen`) or
state counts that disagree with direct enumeration (`count --oracle`),
5 artifact verification failure.  Data goes to stdout, diagnostics to
stderr.
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
)
from .multipoly import (
    _sort_with_sign,
    slater_basis,
    slater_normalized,
    source_slater,
)
from .qseries import Statistics, shape_entropy, shape_poly, state_count_series
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
EXIT_HISTOGRAM = 4
EXIT_VERIFY = 5


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

    p = sub.add_parser("poly", help="print a shape polynomial")
    p.add_argument("-N", type=int, required=True, help="particle count")
    p.add_argument("-d", type=int, required=True, help="dimension")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--fermion", action="store_true", default=True)
    group.add_argument("--boson", dest="fermion", action="store_false")

    g = sub.add_parser("gen", help="enumerate shapes and write artifacts")
    g.add_argument("-N", type=int, required=True)
    g.add_argument("-d", type=int, required=True)
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
    v.add_argument("path", help="path to shapes.json")

    c = sub.add_parser("count", help="print state counts per grade")
    c.add_argument("-N", type=int, required=True)
    c.add_argument("-d", type=int, required=True)
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
    stats = Statistics.FERMION if args.fermion else Statistics.BOSON
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

    # the descent has certified the records; the counts, the ones verify
    # checks first, run before anything is written, so a failed run leaves
    # no artifact behind that looks like a finished one
    doc = document_from_result(result)
    failure = _check_counts(doc)
    if failure is not None:
        print(f"histogram mismatch: {failure}", file=sys.stderr)
        return EXIT_HISTOGRAM

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
    # count fails at once: a malformed one can make n!^(d-1) too large to form
    count = len(doc.records)
    if (n > 1 and d - 1 > math.log(count + 1) / math.log(n)
            or count != math.factorial(n) ** (d - 1)):
        return (f"shape count {count} != n!^(d-1) for n={n} d={d}; "
                f"empty or truncated artifact")
    coeffs = list(shape_poly(n, d, Statistics.FERMION).coeffs)
    if doc.shape_poly != coeffs:
        return "stored shape polynomial differs from the recursion"
    histogram: dict[int, int] = {}
    for rec in doc.records:
        histogram[rec.grade] = histogram.get(rec.grade, 0) + 1
    if histogram != {g: c for g, c in enumerate(coeffs) if c}:
        return "grade histogram differs from the shape polynomial"
    return None


# the provenance fields that gen never writes for a record of each kind
_FOREIGN_PROVENANCE = {
    "root": ("parent", "word", "rows"),
    "word": ("rows",),
    "oracle": ("parent", "word"),
}


def _check_records(doc: ShapeDocument) -> str | None:
    """Each record is a canonical antisymmetric shape of its grade, carries
    that grade's entropy, and replays from its provenance, which holds only
    its kind's fields, in occupation-set coordinates: a word acts on the
    parent's Slater coefficients as in the descent."""
    n, d = doc.n, doc.d
    for idx, rec in enumerate(doc.records):
        tag = f"record {rec.id}"
        if rec.id != idx:
            return f"{tag}: ids are not dense and ascending"
        if rec.slater == {}:
            return f"{tag}: zero polynomial"
        try:
            coeffs = rec.checked_slater()
        except ValueError as exc:
            return str(exc)
        # Alt(rows) is homogeneous of grade sum(rows)
        if sum(map(sum, next(iter(coeffs)))) != rec.grade:
            return f"{tag}: polynomial grade differs from the stated grade"
        # _check_counts has matched every grade to a shape-polynomial term
        if not math.isclose(rec.entropy, shape_entropy(n, d, rec.grade),
                            rel_tol=1e-12):
            return f"{tag}: entropy differs from the log of its grade's count"
        if slater_normalized(coeffs)[1:] != (1, 1):
            return f"{tag}: polynomial is not in canonical form"
        pv = rec.provenance
        if not isinstance(pv.kind, str) or pv.kind not in _FOREIGN_PROVENANCE:
            return f"{tag}: unknown provenance kind {pv.kind!r}"
        foreign = [f for f in _FOREIGN_PROVENANCE[pv.kind]
                   if getattr(pv, f) is not None]
        if foreign:
            return f"{tag}: {pv.kind} provenance has {', '.join(foreign)}"
        if pv.kind == "root":
            if rec.id != doc.tree.root:
                return f"{tag}: root provenance on a non-root id"
            if (pv.content != 1 or pv.sign != 1
                    or coeffs != source_slater(n, d)):
                return f"{tag}: root does not replay to the source shape"
            continue
        if pv.kind == "word":
            if pv.parent is None or pv.word is None:
                return f"{tag}: word provenance missing parent or word"
            if not 0 <= pv.parent < rec.id:
                return f"{tag}: parent id out of range"
            raw = apply_symword_slater(pv.word, doc.records[pv.parent].slater)
        else:
            if pv.rows is None:
                return f"{tag}: oracle provenance missing rows"
            rows = list(pv.rows)    # distinct, as the loader checked
            sign = _sort_with_sign(rows)   # the listed order carries it
            raw = {tuple(rows): sign}
        if not raw:
            return f"{tag}: replay gives zero"
        if slater_normalized(raw) != (coeffs, pv.content, pv.sign):
            return f"{tag}: replay does not reproduce the polynomial"
        if pv.kind == "word" and (doc.tree.edges.get(rec.id)
                                  != (pv.parent, pv.word)):
            return f"{tag}: tree edge disagrees with provenance"
    return None


def _check_tree(doc: ShapeDocument) -> str | None:
    """Tree edges are exactly the word records' (each already matched to
    its provenance), and every extra edge is listed once and replays with
    its sign, in occupation-set coordinates like the records."""
    word_children = {rec.id for rec in doc.records
                     if rec.provenance.kind == "word"}
    if set(doc.tree.edges) != word_children:
        return "tree edges do not match word-derived records"
    if doc.tree.root in doc.tree.edges:
        return "root has an incoming tree edge"
    ids = {rec.id for rec in doc.records}
    if len(set(doc.tree.extra_edges)) != len(doc.tree.extra_edges):
        return "an extra edge is listed twice"
    for src, dst, word, sign in doc.tree.extra_edges:
        if src not in ids or dst not in ids:
            return f"extra edge ({src}, {dst}) references unknown ids"
        raw = apply_symword_slater(word, doc.records[src].slater)
        if not raw:
            return f"extra edge ({src}, {dst}): replay gives zero"
        prim, _, rel_sign = slater_normalized(raw)
        if prim != doc.records[dst].slater or rel_sign != sign:
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
        return EXIT_HISTOGRAM
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
    if args.command == "poly":
        return cmd_poly(args)
    if args.command == "gen":
        return cmd_gen(args)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_count(args)


if __name__ == "__main__":
    sys.exit(main())
