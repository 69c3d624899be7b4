"""Artifact serialization: the direct term-list renderer of dumps_document
against json.dumps, and the byte-stable round trip."""

import json

import pytest

from shapeforge.engine import EngineConfig, ShapeRecord, enumerate_shapes
from shapeforge.serialize import (
    document_from_result,
    document_to_dict,
    dumps_document,
    loads_document,
)


@pytest.mark.parametrize("n,d,config", [
    (1, 1, EngineConfig()),
    (1, 3, EngineConfig()),
    (2, 1, EngineConfig()),
    (2, 3, EngineConfig()),
    (2, 3, EngineConfig(max_letters=1)),     # oracle rows in provenance
    (3, 3, EngineConfig(exhaustive=True)),   # extra edges
    (2, 5, EngineConfig()),
])
def test_dumps_document_matches_json_dumps(n, d, config):
    doc = document_from_result(enumerate_shapes(n, d, config))
    text = dumps_document(doc)

    # the reference expands each record into monomials, independently of
    # the writer's own expansion table
    def poly(rec):
        terms = rec.poly.terms
        return [{"exp": list(m), "coef": str(terms[m])}
                for m in sorted(terms, reverse=True)]

    assert text == json.dumps(document_to_dict(doc, poly), indent=2) + "\n"
    assert dumps_document(loads_document(text)) == text


@pytest.mark.parametrize("slater", [{}, None], ids=["empty", "none"])
def test_record_without_polynomial_cannot_be_written(slater):
    doc = document_from_result(enumerate_shapes(2, 3))
    records = list(doc.records)
    records[1] = records[1]._replace(slater=slater)
    with pytest.raises(ValueError):
        dumps_document(doc._replace(records=records))


@pytest.mark.parametrize("config", [EngineConfig(), EngineConfig(max_letters=1)],
                         ids=["default", "oracle"])
def test_records_hold_only_slater_coefficients(config):
    result = enumerate_shapes(3, 3, config)
    # the descent keeps no expanded polynomial on any record, and a record
    # has no __dict__ that one could be cached in
    assert "poly" not in ShapeRecord._fields
    assert not any(hasattr(rec, "__dict__") for rec in result.records)
    doc = document_from_result(result)
    assert loads_document(dumps_document(doc)).records == doc.records
