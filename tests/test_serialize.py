"""Artifact serialization: the direct term-list renderer of dumps_document
against json.dumps, and the byte-stable round trip."""

import json

import pytest

from shapeforge.engine import EngineConfig, enumerate_shapes
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
    assert text == json.dumps(document_to_dict(doc), indent=2) + "\n"
    assert dumps_document(loads_document(text)) == text
