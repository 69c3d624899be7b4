"""Shape-set serialization: JSON documents, DOT trees, text reports.

The writer defines shapes.json.  Coefficients and contents are decimal
strings, so consumers with fixed-width integers cannot silently truncate
them; ids, grades, exponents and signs are JSON integers.  A term list is
the n!-fold expansion of a record's Slater coefficients.  The loader takes
only the writer's form, up to JSON whitespace, so serialize(parse(text))
== text; duplicate JSON keys are out of scope (json keeps the last value).
"""

from __future__ import annotations

import json
import math
from typing import Iterator, NamedTuple, TextIO

from .engine import (
    BranchingTree,
    EnumerationResult,
    Provenance,
    RunReport,
    ShapeRecord,
)
from .multipoly import _alternation_table, _sort_with_sign
from .qseries import Statistics, shape_poly
from .shiftops import SymWord, word_from_str, word_to_str

GENERATOR_ORDER = "lex, coordinate-major"
_INTS = {int}


class ShapeDocument(NamedTuple):
    n: int
    d: int
    shape_poly: list[int]
    records: list[ShapeRecord]
    tree: BranchingTree


def document_from_result(result: EnumerationResult) -> ShapeDocument:
    coeffs = list(shape_poly(result.n, result.d, Statistics.FERMION).coeffs)
    return ShapeDocument(
        n=result.n,
        d=result.d,
        shape_poly=coeffs,
        records=result.records,
        tree=result.tree,
    )


class ArtifactFormatError(ValueError):
    """A document does not follow the shapes.json schema."""


def _object(obj, keys: tuple[str, ...], where: str) -> dict:
    """obj, once it is an object with exactly these keys: the writer writes
    every key of each object, so a missing or an unknown one is an error."""
    if not isinstance(obj, dict):
        raise ArtifactFormatError(f"{where}: expected an object")
    if obj.keys() != set(keys):
        missing = [k for k in keys if k not in obj]
        raise ArtifactFormatError(f"{where}: " + (
            f"missing {missing[0]!r}" if missing else "unknown key "
            + ", ".join(map(repr, sorted(obj.keys() - set(keys))))))
    return obj


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ArtifactFormatError(f"{where}: expected a list")
    return value


def _int(value, where: str) -> int:
    # ids, grades and signs are written as JSON numbers, contents and
    # shape-polynomial coefficients as decimal strings
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ArtifactFormatError(f"{where}: expected an integer, got {value!r}")


def _float(value, where: str) -> float:
    if type(value) is float:
        return value
    raise ArtifactFormatError(f"{where}: expected a float, got {value!r}")


def _writer_float(text: str) -> float:
    """json's parse_float: the writer spells a float as its repr."""
    if repr(value := float(text)) != text:
        raise ArtifactFormatError(
            f"{text}: not in the form the writer gives it")
    return value


def _word(text, d: int, where: str) -> SymWord:
    if not isinstance(text, str):
        raise ArtifactFormatError(f"{where}: expected a word string")
    try:
        w = word_from_str(text)
    except ValueError as exc:
        raise ArtifactFormatError(f"{where}: {exc}") from None
    for letter in w.letters:
        if letter.coordinate >= d:
            raise ArtifactFormatError(
                f"{where}: coordinate {letter.coordinate} outside d={d}")
    return SymWord(w)


def _slater_from_json(items, n: int, d: int, where: str) -> dict | None:
    """The Slater coefficients a_S of a term list in the writer's form: per
    set S of rows, n! terms, each a_S times the sign of sorting its rows to
    S, exponent vectors strictly descending.  A malformed term raises
    ArtifactFormatError; terms that are not that expansion give None."""
    items = _list(items, where)
    if n < 1 or d < 1:
        return None    # _check_counts rejects the document first
    out: dict[tuple, int] = {}
    due: dict[tuple, str] = {}    # the unread terms of the sets read so far
    expanded = True
    previous = [math.inf]    # above every exponent vector
    for k, item in enumerate(items):
        try:   # the common case: a term that an earlier one's set announced
            exp, coef = item["exp"], item["coef"]
            want = due.pop(tuple(exp), None)
        except (KeyError, TypeError):
            want = None
        if (want is None or want != coef or len(item) != 2
                or not _INTS.issuperset(map(type, exp))):
            _object(item, ("exp", "coef"), f"{where}[{k}]")  # binds both
            value = _int(coef, f"{where}[{k}].coef")
            if (type(exp) is not list or len(exp) != n * d
                    or not _INTS.issuperset(map(type, exp)) or min(exp) < 0
                    or not value or str(value) != coef):
                raise ArtifactFormatError(
                    f"{where}[{k}]: expected {n * d} nonnegative integers "
                    f"'exp' and a nonzero decimal 'coef'")
            rows = [tuple(exp[a::n]) for a in range(n)]
            sign = _sort_with_sign(rows)
            rows = tuple(rows)
            # a wrong coefficient, two equal rows, a repeated term, or too
            # few terms for a set's n! (21! is past any list's length)
            if (want is not None or not sign or rows in out
                    or math.factorial(min(n, 21)) > len(items)):
                expanded = False
            else:
                out[rows] = a = sign * value
                flat = tuple(e for column in zip(*rows) for e in column)
                for gather, s in _alternation_table(n, d):
                    due[gather(flat)] = str(s * a)
                del due[tuple(exp)]
        expanded &= exp < previous
        previous = exp
    return out if expanded and not due else None


def _provenance_to_json(pv: Provenance) -> dict:
    return {
        "kind": pv.kind,
        "parent": pv.parent,
        "word": None if pv.word is None else word_to_str(pv.word),
        "rows": None if pv.rows is None else [list(r) for r in pv.rows],
        "content": str(pv.content),
        "sign": pv.sign,
    }


def _provenance_from_json(data, n: int, d: int, where: str) -> Provenance:
    data = _object(data, ("kind", "parent", "word", "rows", "content", "sign"),
                   where)
    parent, word, rows = data["parent"], data["word"], data["rows"]
    if rows is not None:
        rows = tuple(
            tuple(_int(e, f"{where}.rows") for e in _list(r, f"{where}.rows"))
            for r in _list(rows, f"{where}.rows")
        )
        if len(rows) != n or len(set(rows)) != n or any(
                len(r) != d or min(r, default=0) < 0 for r in rows):
            raise ArtifactFormatError(f"{where}.rows: expected {n} distinct "
                                      f"rows of {d} nonnegative exponents")
    return Provenance(
        data["kind"],
        None if parent is None else _int(parent, f"{where}.parent"),
        None if word is None else _word(word, d, f"{where}.word"),
        rows,
        _int(data["content"], f"{where}.content"),
        _int(data["sign"], f"{where}.sign"))


def document_to_dict(doc: ShapeDocument, poly) -> dict:
    """The JSON object of a document; poly renders each shape's record."""
    return {
        "n": doc.n,
        "d": doc.d,
        "generator_order": GENERATOR_ORDER,
        "shape_poly": [str(c) for c in doc.shape_poly],
        "shapes": [
            {
                "id": rec.id,
                "grade": rec.grade,
                "entropy": rec.entropy,
                "provenance": _provenance_to_json(rec.provenance),
                "poly": poly(rec),
            }
            for rec in doc.records
        ],
        "tree": {
            "root": doc.tree.root,
            "edges": [
                {
                    "child": child,
                    "parent": parent,
                    "word": word_to_str(word),
                }
                for child, (parent, word) in sorted(doc.tree.edges.items())
            ],
            "extra_edges": [
                {
                    "from": src,
                    "to": dst,
                    "word": word_to_str(word),
                    "sign": sign,
                }
                for src, dst, word, sign in doc.tree.extra_edges
            ],
        },
    }


def document_from_dict(data) -> ShapeDocument:
    """Parse a document, checking it against the artifact schema: every
    violation raises ArtifactFormatError, so nothing malformed (a wrong
    type, a missing or unknown key, a bad term, a word naming a coordinate
    >= d) reaches the polynomial code.  Then the writer's rendering of the
    document, term lists passed through, must equal data: one spelling of
    each value, one generator order, one order of tree edges."""
    data = _object(data, ("n", "d", "generator_order", "shape_poly",
                          "shapes", "tree"), "document")
    n = _int(data["n"], "n")
    d = _int(data["d"], "d")
    records = []
    for k, item in enumerate(_list(data["shapes"], "shapes")):
        where = f"shapes[{k}]"
        item = _object(item, ("id", "grade", "entropy", "provenance", "poly"),
                       where)
        records.append(ShapeRecord(
            _int(item["id"], f"{where}.id"),
            _int(item["grade"], f"{where}.grade"),
            _slater_from_json(item["poly"], n, d, f"{where}.poly"),
            _provenance_from_json(item["provenance"], n, d,
                                  f"{where}.provenance"),
            _float(item["entropy"], f"{where}.entropy")))
    tree_data = _object(data["tree"], ("root", "edges", "extra_edges"), "tree")
    edges = {}
    for k, e in enumerate(_list(tree_data["edges"], "tree.edges")):
        where = f"tree.edges[{k}]"
        e = _object(e, ("child", "parent", "word"), where)
        edges[_int(e["child"], f"{where}.child")] = (
            _int(e["parent"], f"{where}.parent"),
            _word(e["word"], d, f"{where}.word"))
    extra = []
    for k, e in enumerate(_list(tree_data["extra_edges"], "tree.extra_edges")):
        where = f"tree.extra_edges[{k}]"
        e = _object(e, ("from", "to", "word", "sign"), where)
        extra.append((_int(e["from"], f"{where}.from"),
                      _int(e["to"], f"{where}.to"),
                      _word(e["word"], d, f"{where}.word"),
                      _int(e["sign"], f"{where}.sign")))
    coeffs = _list(data["shape_poly"], "shape_poly")
    doc = ShapeDocument(n, d, [_int(c, "shape_poly") for c in coeffs],
                        records, BranchingTree(
                            _int(tree_data["root"], "tree.root"), edges, extra))
    polys = (item["poly"] for item in data["shapes"])
    rendered = document_to_dict(doc, poly=lambda rec: next(polys))
    if rendered != data:
        key = next(k for k in rendered if rendered[k] != data[k])
        raise ArtifactFormatError(f"{key}: not in the form the writer gives it")
    return doc


# json.dumps falls back to its pure-Python encoder under indent, which is
# slow on the term lists; those are rendered directly in the same layout,
# where a shape's poly list sits three levels deep
_POLY_SLOT = "@poly@"
_TERM_HEAD = '{\n          "exp": [\n            '
_EXP_SEP = ',\n            '
_TERM_MID = '\n          ],\n          "coef": "'
_TERM_TAIL = '"\n        }'


def _poly_text(slater: dict | None, n: int, d: int) -> str:
    """The json.dumps text, indent=2, of a record's term list at a shape's
    depth: its Slater coefficients expanded by the loader's own table."""
    if not slater:
        raise ValueError("a shape with no polynomial cannot be written")
    terms = []
    for rows, a in slater.items():
        flat = tuple(e for column in zip(*rows) for e in column)
        texts, signed = tuple(map(str, flat)), {1: str(a), -1: str(-a)}
        terms += [(gather(flat), gather(texts), signed[s])
                  for gather, s in _alternation_table(n, d)]
    terms.sort(reverse=True)    # exponents are distinct: texts never compared
    return "[\n        " + ",\n        ".join(
        _TERM_HEAD + _EXP_SEP.join(texts) + _TERM_MID + coef + _TERM_TAIL
        for _, texts, coef in terms
    ) + "\n      ]"


def document_pieces(doc: ShapeDocument) -> Iterator[str]:
    """The text of dumps_document in pieces: one shape's term list at a
    time, rendered from its record, so a writer never holds the document."""
    data = document_to_dict(doc, poly=lambda rec: _POLY_SLOT)
    pieces = json.dumps(data, indent=2).split(f'"{_POLY_SLOT}"')
    yield pieces[0]
    for rec, piece in zip(doc.records, pieces[1:]):
        yield _poly_text(rec.slater, doc.n, doc.d)
        yield piece
    yield "\n"


def dumps_document(doc: ShapeDocument) -> str:
    """json.dumps(document_to_dict(doc, poly), indent=2) plus a newline,
    where poly lists a record's terms {"exp", "coef"} by descending exp; a
    record whose slater is {} or None cannot be written (ValueError)."""
    return "".join(document_pieces(doc))


def loads_document(source: str | TextIO) -> ShapeDocument:
    """Parse a document from its text or from a text file.  A file's text
    lives only inside json.load, so it is freed before the document is
    built; a caller that passed the text itself would hold it until this
    returns."""
    load = json.loads if isinstance(source, str) else json.load
    return document_from_dict(load(source, parse_float=_writer_float))


# --- DOT -----------------------------------------------------------------

def document_to_dot(doc: ShapeDocument) -> str:
    """Graphviz digraph: one node per shape labeled id@grade, solid tree
    edges parent -> child labeled with the word, dashed extra edges."""
    lines = ["digraph shapes {", "  rankdir=RL;", "  node [shape=box];"]
    names = {rec.id: f"{rec.id}@{rec.grade}" for rec in doc.records}
    for rec in doc.records:
        lines.append(f'  "{names[rec.id]}";')
    for child in sorted(doc.tree.edges):
        parent, word = doc.tree.edges[child]
        lines.append(
            f'  "{names[parent]}" -> "{names[child]}" '
            f'[label="{word_to_str(word)}"];'
        )
    for src, dst, word, sign in doc.tree.extra_edges:
        lines.append(
            f'  "{names[src]}" -> "{names[dst]}" '
            f'[label="{word_to_str(word)} ({sign:+d})", style=dashed];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- text report ----------------------------------------------------------

def report_to_text(result: EnumerationResult) -> str:
    """Run totals, then each grade's GradeStats; `skipped` is the grade's
    candidates, counted from the vocabulary, left untried once it filled."""
    rep: RunReport = result.report
    lines = [
        f"shapes: {len(result.records)} for n={result.n} d={result.d}",
        f"vocabulary: {rep.vocabulary_size} words",
        f"elapsed: {rep.elapsed:.3f}s",
        f"tree edges: {len(result.tree.edges)}, "
        f"extra edges: {len(result.tree.extra_edges)}",
        "",
        "grade  expected  found  tried  zero  survived  in_span  pruned  skipped  fallback",
    ]
    fallbacks = []
    for g in sorted(rep.per_grade, reverse=True):
        s = rep.per_grade[g]
        lines.append(
            f"{g:5d}  {s.expected:8d}  {s.found:5d}  {s.tried:5d}  "
            f"{s.zero:4d}  {s.survived:8d}  {s.in_span:7d}  {s.pruned:6d}  "
            f"{s.skipped:7d}  {s.fallback:8d}"
        )
        if s.fallback:
            fallbacks.append(
                f"fallback at grade {g}: oracle filled {s.fallback}")
    lines.append("")
    lines += fallbacks or ["fallback: none"]
    if rep.annihilation_warnings:
        lines.append(
            f"annihilation warnings: {len(rep.annihilation_warnings)} "
            f"(shape, coordinate): "
            + ", ".join(f"({i},{c})" for i, c in rep.annihilation_warnings)
        )
    else:
        lines.append("annihilation warnings: none")
    return "\n".join(lines) + "\n"
