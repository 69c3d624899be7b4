"""Shape-set serialization: JSON documents, DOT trees, text reports.

Polynomial coefficients and contents are written as decimal strings so
consumers with fixed-width integers cannot silently truncate them; ids,
grades, exponents and signs stay JSON integers.  Serialization is
deterministic: serialize(parse(serialize(x))) is byte-identical to
serialize(x).
"""

from __future__ import annotations

import json
import operator
from typing import Iterator, NamedTuple, TextIO

from .engine import (
    BranchingTree,
    EnumerationResult,
    Provenance,
    RunReport,
    ShapeRecord,
)
from .multipoly import MPoly, slater_coefficients
from .qseries import Statistics, shape_poly
from .shiftops import SymWord, word_from_str, word_to_str

GENERATOR_ORDER = "lex, coordinate-major"


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


def _field(obj, key: str, where: str, required: bool = True):
    if not isinstance(obj, dict):
        raise ArtifactFormatError(f"{where}: expected an object")
    if required and key not in obj:
        raise ArtifactFormatError(f"{where}: missing {key!r}")
    return obj.get(key)


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
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ArtifactFormatError(f"{where}: expected a number, got {value!r}")


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


def _poly_to_json(rec: ShapeRecord) -> list[dict]:
    terms = rec.poly.terms
    return [{"exp": list(mono), "coef": str(terms[mono])}
            for mono in sorted(terms, reverse=True)]


def _slater_from_json(items, n: int, d: int, where: str) -> dict | None:
    items = _list(items, where)
    try:
        terms = {tuple(map(operator.index, item["exp"])): int(item["coef"])
                 for item in items}
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ArtifactFormatError(
            f"{where}: every term needs an integer list 'exp' and an "
            f"integer 'coef'") from None
    if terms and set(map(len, terms)) != {n * d}:
        raise ArtifactFormatError(
            f"{where}: exponent vectors must have n*d = {n * d} entries")
    if terms and n * d and min(map(min, terms)) < 0:
        raise ArtifactFormatError(f"{where}: negative exponent")
    if not all(terms.values()):
        raise ArtifactFormatError(f"{where}: zero coefficient")
    p = MPoly(n, d, terms)
    try:   # the antisymmetry round trip, once; the monomials are dropped
        return slater_coefficients(p)
    except ValueError:   # ShapeRecord.checked_slater reports it
        return None


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
    word = _field(data, "word", where, required=False)
    rows = _field(data, "rows", where, required=False)
    parent = _field(data, "parent", where, required=False)
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
        kind=_field(data, "kind", where),
        parent=None if parent is None else _int(parent, f"{where}.parent"),
        word=None if word is None else _word(word, d, f"{where}.word"),
        rows=rows,
        content=_int(_field(data, "content", where), f"{where}.content"),
        sign=_int(_field(data, "sign", where), f"{where}.sign"),
    )


def document_to_dict(doc: ShapeDocument, poly=_poly_to_json) -> dict:
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
    type, an exponent vector of the wrong length or with a negative entry,
    a word naming a coordinate >= d, a generator order other than
    GENERATOR_ORDER) reaches the polynomial code."""
    n = _int(_field(data, "n", "document"), "n")
    d = _int(_field(data, "d", "document"), "d")
    order = _field(data, "generator_order", "document")
    if order != GENERATOR_ORDER:
        raise ArtifactFormatError(
            f"document: generator order {order!r}, expected "
            f"{GENERATOR_ORDER!r}")
    records = []
    shapes = _list(_field(data, "shapes", "document"), "shapes")
    for k, item in enumerate(shapes):
        where = f"shapes[{k}]"
        records.append(
            ShapeRecord(
                id=_int(_field(item, "id", where), f"{where}.id"),
                grade=_int(_field(item, "grade", where), f"{where}.grade"),
                slater=_slater_from_json(_field(item, "poly", where), n, d,
                                         f"{where}.poly"),
                provenance=_provenance_from_json(
                    _field(item, "provenance", where), n, d,
                    f"{where}.provenance"),
                entropy=_float(_field(item, "entropy", where),
                               f"{where}.entropy"),
            )
        )
    tree_data = _field(data, "tree", "document")
    edges = {}
    for k, e in enumerate(_list(_field(tree_data, "edges", "tree"),
                                "tree.edges")):
        where = f"tree.edges[{k}]"
        child = _int(_field(e, "child", where), f"{where}.child")
        edges[child] = (_int(_field(e, "parent", where), f"{where}.parent"),
                        _word(_field(e, "word", where), d, f"{where}.word"))
    extra = []
    for k, e in enumerate(_list(_field(tree_data, "extra_edges", "tree"),
                                "tree.extra_edges")):
        where = f"tree.extra_edges[{k}]"
        extra.append((
            _int(_field(e, "from", where), f"{where}.from"),
            _int(_field(e, "to", where), f"{where}.to"),
            _word(_field(e, "word", where), d, f"{where}.word"),
            _int(_field(e, "sign", where), f"{where}.sign"),
        ))
    return ShapeDocument(
        n=n,
        d=d,
        shape_poly=[_int(c, "shape_poly")
                    for c in _list(_field(data, "shape_poly", "document"),
                                   "shape_poly")],
        records=records,
        tree=BranchingTree(
            root=_int(_field(tree_data, "root", "tree"), "tree.root"),
            edges=edges, extra_edges=extra),
    )


# json.dumps falls back to its pure-Python encoder under indent, which is
# slow on the term lists; those are rendered directly in the same layout,
# where a shape's poly list sits three levels deep
_POLY_SLOT = "@poly@"
_TERM_HEAD = '{\n          "exp": [\n            '
_EXP_SEP = ',\n            '
_TERM_MID = '\n          ],\n          "coef": "'
_TERM_TAIL = '"\n        }'


def _poly_text(p: MPoly) -> str:
    """json.dumps(_poly_to_json(p), indent=2) at a shape's depth."""
    if not p.terms:
        return "[]"
    terms = p.terms
    return "[\n        " + ",\n        ".join(
        _TERM_HEAD + _EXP_SEP.join(map(str, mono)) + _TERM_MID
        + str(terms[mono]) + _TERM_TAIL
        for mono in sorted(terms, reverse=True)
    ) + "\n      ]"


def document_pieces(doc: ShapeDocument) -> Iterator[str]:
    """The text of dumps_document in pieces: one shape's term list at a
    time, expanded from its record, so a writer never holds the document."""
    data = document_to_dict(doc, poly=lambda rec: _POLY_SLOT)
    pieces = json.dumps(data, indent=2).split(f'"{_POLY_SLOT}"')
    yield pieces[0]
    for rec, piece in zip(doc.records, pieces[1:]):
        yield _poly_text(rec.poly)
        yield piece
    yield "\n"


def dumps_document(doc: ShapeDocument) -> str:
    """json.dumps(document_to_dict(doc), indent=2) plus a newline, byte for
    byte, with the polynomials rendered by _poly_text."""
    return "".join(document_pieces(doc))


def loads_document(source: str | TextIO) -> ShapeDocument:
    """Parse a document from its text or from a text file.  A file's text
    lives only inside json.load, so it is freed before the document is
    built; a caller that passed the text itself would hold it until this
    returns."""
    data = json.loads(source) if isinstance(source, str) else json.load(source)
    return document_from_dict(data)


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
