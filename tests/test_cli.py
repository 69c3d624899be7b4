import hashlib
import json
import logging
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from shapeforge.cli import main
from shapeforge.engine import IncompletenessError
from shapeforge.multipoly import antisymmetrize
from shapeforge.serialize import (
    document_from_dict,
    dumps_document,
    loads_document,
)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_cli_import_leaves_dataclasses_unloaded():
    # every command pays for its imports; the record types are NamedTuples
    # and slotted classes, so dataclasses (with the inspect, ast and dis
    # it pulls in) stays out of start-up
    src = Path(__file__).resolve().parents[1] / "src"
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, shapeforge.cli; print('dataclasses' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True)
    assert probe.stdout.strip() == "False", probe.stderr


# --- poly ----------------------------------------------------------------

def test_poly_fermion_golden(capsys):
    rc, out, _ = run(capsys, "poly", "-N", "3", "-d", "3")
    assert rc == 0
    head, coeffs = out.splitlines()
    assert head == "3q^2 + 10q^3 + 6q^4 + 6q^5 + 7q^6 + 3q^7 + q^9"
    assert json.loads(coeffs) == [0, 0, 3, 10, 6, 6, 7, 3, 0, 1]


def test_poly_boson_golden(capsys):
    rc, out, _ = run(capsys, "poly", "-N", "3", "-d", "3", "--boson")
    assert rc == 0
    assert json.loads(out.splitlines()[1]) == [1, 0, 3, 7, 6, 6, 10, 3]


def test_poly_empty_system_is_one(capsys):
    rc, out, _ = run(capsys, "poly", "-N", "0", "-d", "3")
    assert rc == 0
    assert out.splitlines() == ["1", "[1]"]


@pytest.mark.parametrize("argv", [
    ("poly", "-N", "-1", "-d", "3"),
    ("poly", "-N", "2", "-d", "0"),
    ("count", "-N", "0", "-d", "3", "-g", "3"),
    ("count", "-N", "2", "-d", "0", "-g", "3"),
])
def test_poly_rejects_bad_arguments(capsys, argv):
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert "error:" in err


# each would form a list past any index: a traceback, or a hang before
# the series loops were capped; sizes that fit an index but would take
# gigabytes are out of scope
@pytest.mark.parametrize("argv", [
    ("poly", "-N", str(10**20), "-d", "3"),
    ("gen", "-N", str(10**20), "-d", "3"),
    ("count", "-N", "3", "-d", "3", "-g", str(10**20)),
    ("count", "-N", str(10**20), "-d", "1", "-g", "3"),
    ("count", "-N", "2", "-d", str(10**20), "-g", "3"),
    ("count", "-N", "1", "-d", str(10**20), "-g", "3"),
    ("gen", "-N", "1", "-d", str(10**20 + 1)),
], ids=["poly-N", "gen-N", "count-g", "count-N", "count-d", "count-1-d",
        "gen-1-d"])
def test_sizes_too_large_to_form_are_refused(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "too large to form" in err


def test_poly_fermion_flag_is_refused(capsys):
    # fermions are the default, so there is no flag that selects them
    rc, out, err = run(capsys, "poly", "-N", "2", "-d", "3", "--fermion")
    assert rc == 2
    assert out == ""
    assert "unrecognized arguments: --fermion" in err
    assert "Traceback" not in err


# --- gen + verify round trip ----------------------------------------------

def test_gen_writes_artifacts_and_verify_accepts(tmp_path, capsys):
    rc, out, _ = run(capsys, "gen", "-N", "2", "-d", "3",
                     "--out", str(tmp_path))
    assert rc == 0
    assert "4 shapes, 3 tree edges, 0 extra edges" in out
    for name in ("shapes.json", "tree.dot", "report.txt"):
        assert (tmp_path / name).is_file()

    rc, out, _ = run(capsys, "verify", str(tmp_path / "shapes.json"))
    assert rc == 0
    assert "verified 4 shapes for n=2 d=3" in out


def test_gen_single_particle(tmp_path, capsys):
    rc, out, _ = run(capsys, "gen", "-N", "1", "-d", "3",
                     "--out", str(tmp_path))
    assert rc == 0
    assert "1 shapes, 0 tree edges, 0 extra edges" in out
    doc = json.loads((tmp_path / "shapes.json").read_text())
    assert [s["grade"] for s in doc["shapes"]] == [0]


def test_gen_artifacts_are_byte_stable(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "gen", "-N", "2", "-d", "3", "--out", str(a))[0] == 0
    assert run(capsys, "gen", "-N", "2", "-d", "3", "--out", str(b))[0] == 0
    for name in ("shapes.json", "tree.dot"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


GOLDENS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json")
    .read_text())


@pytest.mark.parametrize("command", GOLDENS)
def test_gen_artifacts_match_goldens(tmp_path, capsys, command):
    assert run(capsys, *command.split(), "--out", str(tmp_path))[0] == 0
    for name, digest in GOLDENS[command].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() \
            == digest, name


def test_gen_report_mentions_vocabulary_and_grades(tmp_path, capsys):
    run(capsys, "gen", "-N", "2", "-d", "3", "--out", str(tmp_path))
    report = (tmp_path / "report.txt").read_text()
    assert "vocabulary: 136 words" in report
    assert "grade  expected  found" in report
    assert "in_span  pruned  skipped" in report
    assert "\nfallback: none\n" in report


def test_gen_dot_lists_every_shape(tmp_path, capsys):
    run(capsys, "gen", "-N", "2", "-d", "3", "--out", str(tmp_path))
    dot = (tmp_path / "tree.dot").read_text()
    assert dot.startswith("digraph shapes {")
    for node in ('"0@3"', '"1@1"', '"2@1"', '"3@1"'):
        assert node in dot
    assert '"0@3" -> "1@1" [label="u[-1]t[-1]"];' in dot


@pytest.mark.parametrize("argv", [
    ("gen", "-N", "0", "-d", "3"),
    ("gen", "-N", "2", "-d", "2"),
    ("gen", "-N", "2", "-d", "3", "--max-letters", "0"),
    ("gen", "-N", "2", "-d", "3", "--threads", "2"),
])
def test_gen_rejects_bad_arguments(capsys, argv):
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert "error:" in err


def test_gen_out_naming_a_file_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("not a directory")
    rc, out, err = run(capsys, "gen", "-N", "1", "-d", "3",
                       "--out", str(target))
    assert rc == 2
    assert err.startswith("error: cannot write artifacts to")
    assert len(err.strip().splitlines()) == 1
    assert target.read_text() == "not a directory"


def test_gen_fallback_run_passes_certificate(tmp_path, capsys):
    rc, out, _ = run(capsys, "gen", "-N", "3", "-d", "3", "--max-letters",
                     "1", "--out", str(tmp_path))
    assert rc == 0
    assert "36 shapes" in out
    # the only golden run through the oracle fallback, pinned byte for byte
    for name, digest in (
        ("shapes.json",
         "644cee59204c74a93283c416385ba1ad9558eeb1438ffc4256161fd9b39cb881"),
        ("tree.dot",
         "7a6ac9323b7768bdf5f21453545141a2858e3196c61a1ba18abeed89dd169f63"),
    ):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() \
            == digest, name
    report = (tmp_path / "report.txt").read_text().splitlines()
    assert [line for line in report if line.startswith("fallback")] == [
        f"fallback at grade {g}: oracle filled {k}"
        for g, k in ((7, 3), (6, 7), (5, 6), (4, 6), (3, 10), (2, 1))]


def test_gen_failed_write_leaves_no_artifact(tmp_path, capsys):
    # a directory where tree.dot belongs makes its rename fail
    (tmp_path / "tree.dot").mkdir()
    rc, _, err = run(capsys, "gen", "-N", "2", "-d", "3",
                     "--out", str(tmp_path))
    assert rc == 2
    assert err.startswith("error: cannot write artifacts to")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tree.dot"]


def test_gen_incomplete_enumeration_exit_code(tmp_path, capsys, monkeypatch):
    def boom(n, d, config):
        raise IncompletenessError("grade 1 expected 3, found 2")
    monkeypatch.setattr("shapeforge.cli.enumerate_shapes", boom)
    rc, _, err = run(capsys, "gen", "-N", "2", "-d", "3",
                     "--out", str(tmp_path))
    assert rc == 3
    assert "enumeration incomplete" in err


def test_gen_completeness_check_exit_code(tmp_path, capsys, monkeypatch):
    # the descent certifies as it accepts: with every class refused, no
    # grade below the root fills even with the oracle, and nothing is written
    monkeypatch.setattr("shapeforge.engine._NormalFormSpan.extend",
                        lambda self, coeffs: False)
    rc, _, err = run(capsys, "gen", "-N", "2", "-d", "3",
                     "--out", str(tmp_path))
    assert rc == 3
    assert "enumeration incomplete: grade 1: 0 of 3 shapes" in err
    assert list(tmp_path.iterdir()) == []


def test_gen_no_verify_is_a_no_op(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "gen", "-N", "3", "-d", "3", "--out", str(a))[0] == 0
    assert run(capsys, "gen", "-N", "3", "-d", "3", "--no-verify",
               "--out", str(b))[0] == 0
    for name in ("shapes.json", "tree.dot"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert main(["gen", "--help"]) == 0
    assert "--no-verify" not in capsys.readouterr().out


# --- verify on damaged artifacts -------------------------------------------

@pytest.fixture(scope="module")
def artifact_text(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifact")
    assert main(["gen", "-N", "2", "-d", "3", "--out", str(out)]) == 0
    return (out / "shapes.json").read_text()


def damaged(tmp_path, text, mutate):
    doc = json.loads(text)
    mutate(doc)
    path = tmp_path / "shapes.json"
    path.write_text(re.sub(r'"@raw:(.*?)@"', r"\1", json.dumps(doc)))
    return str(path)


def _raw(text):
    """A value that damaged() writes as this JSON text, unquoted."""
    return f"@raw:{text}@"


VERIFY_CHECKS = ("counts and histogram", "record replay",
                 "tree and extra edges", "certificate")


def _verify_log(caplog, capsys, path):
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="shapeforge.cli"):
        rc, _, _ = run(capsys, "--verbose", "verify", path)
    return rc, [r.getMessage() for r in caplog.records
                if r.name == "shapeforge.cli"]


def test_verify_verbose_logs_each_check_with_its_time(tmp_path, capsys,
                                                      caplog, artifact_text):
    path = tmp_path / "shapes.json"
    path.write_text(artifact_text)
    rc, lines = _verify_log(caplog, capsys, str(path))
    assert rc == 0
    assert len(lines) == 1 + len(VERIFY_CHECKS)
    assert re.fullmatch(r"verify load: 4 shapes, \d+\.\d\ds", lines[0])
    for line, label in zip(lines[1:], VERIFY_CHECKS):
        assert re.fullmatch(rf"verify {label}: ok, \d+\.\d\ds", line), line

    # a failed check is logged as such, and the checks after it do not run
    def mutate(doc):
        doc["shapes"][0]["poly"][0]["coef"] = "2"
    rc, lines = _verify_log(caplog, capsys,
                            damaged(tmp_path, artifact_text, mutate))
    assert rc == 5
    assert [line.split(":")[0] for line in lines] == [
        "verify load", "verify counts and histogram", "verify record replay"]
    assert lines[-1].startswith("verify record replay: failed, ")


def test_verify_rejects_perturbed_coefficient(tmp_path, capsys, artifact_text):
    def mutate(doc):
        doc["shapes"][0]["poly"][0]["coef"] = "2"
    rc, _, err = run(capsys, "verify", damaged(tmp_path, artifact_text, mutate))
    assert rc == 5
    assert "verify failed" in err


def test_verify_rejects_truncated_shape_list(tmp_path, capsys, artifact_text):
    def mutate(doc):
        doc["shapes"].pop()
        doc["tree"]["edges"].pop()
    rc, _, err = run(capsys, "verify", damaged(tmp_path, artifact_text, mutate))
    assert rc == 5
    assert "shape count" in err


def test_verify_rejects_wrong_descent_word(tmp_path, capsys, artifact_text):
    def mutate(doc):
        a = doc["shapes"][1]["provenance"]
        b = doc["shapes"][2]["provenance"]
        a["word"], b["word"] = b["word"], a["word"]
    rc, _, err = run(capsys, "verify", damaged(tmp_path, artifact_text, mutate))
    assert rc == 5
    assert "replay" in err


def test_verify_rejects_negated_shape(tmp_path, capsys, artifact_text):
    def mutate(doc):
        for term in doc["shapes"][1]["poly"]:
            term["coef"] = str(-int(term["coef"]))
    rc, _, err = run(capsys, "verify", damaged(tmp_path, artifact_text, mutate))
    assert rc == 5
    assert "record 1: replay does not reproduce the polynomial" in err


def test_verify_rejects_record_spanning_two_multidegrees(tmp_path, capsys,
                                                        artifacts_33):
    # antisymmetric and of the stated total grade 2, but with multidegrees
    # (0, 1, 1) and (1, 0, 1)
    mixed = (antisymmetrize([(0, 0, 0), (0, 0, 1), (0, 1, 0)])
             + antisymmetrize([(0, 0, 0), (0, 0, 1), (1, 0, 0)]))

    def mutate(doc):
        shape = next(s for s in doc["shapes"] if s["grade"] == 2)
        shape["poly"] = [{"exp": list(mono), "coef": str(mixed.terms[mono])}
                         for mono in sorted(mixed.terms, reverse=True)]
    rc, _, err = run(capsys, "verify",
                     damaged(tmp_path, artifacts_33["extra"], mutate))
    assert rc == 5
    assert "replay does not reproduce the polynomial" in err


def test_verify_rejects_relabeled_grade(tmp_path, capsys, artifact_text):
    def mutate(doc):
        doc["shapes"][1]["grade"] = 2
    rc, _, err = run(capsys, "verify", damaged(tmp_path, artifact_text, mutate))
    assert rc == 5


def test_verify_rejects_word_record_with_rows(tmp_path, capsys, artifacts_33):
    def mutate(doc):
        pv = _first_provenance(doc, "word")
        pv["rows"] = _first_provenance(doc, "oracle")["rows"]
    rc, _, err = run(capsys, "verify",
                     damaged(tmp_path, artifacts_33["oracle"], mutate))
    assert rc == 5
    assert "word provenance has fields ['parent', 'word', 'rows']" in err


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(path, value):
    """A mutation that replaces the item at a key path with value."""
    def mutate(doc):
        _at(doc, path[:-1])[path[-1]] = value
    return mutate


def _respell(path, spell):
    """A mutation that writes the value at a key path another way."""
    def mutate(doc):
        node = _at(doc, path[:-1])
        node[path[-1]] = spell(node[path[-1]])
    return mutate


def _duplicate(path, i=0):
    """A mutation that inserts a copy of item i of a list before it."""
    def mutate(doc):
        node = _at(doc, path)
        node.insert(i, json.loads(json.dumps(node[i])))
    return mutate


def _swap(path, i=0):
    """A mutation that swaps items i and i + 1 of a list."""
    def mutate(doc):
        node = _at(doc, path)
        node[i], node[i + 1] = node[i + 1], node[i]
    return mutate


def _add_key(path):
    """A mutation that adds a key the writer never writes to an object."""
    def mutate(doc):
        _at(doc, path)["unknown"] = 0
    return mutate


def _raise_entropy(doc):
    doc["shapes"][1]["entropy"] += 1.0


def _copy_fields(src, dst, *fields):
    """A mutation that gives record dst record src's value of each field."""
    def mutate(doc):
        for field in fields:
            doc["shapes"][dst][field] = doc["shapes"][src][field]
    return mutate


def _refill_oracle(k, rows):
    """A mutation that makes oracle fill k the one determinant of rows, as
    gen would write it: the term list of its canonical form, and its
    sign."""
    def mutate(doc):
        prim, _, sign = antisymmetrize(list(rows)).normalized()
        shape = doc["shapes"][k]
        shape["provenance"].update(rows=[list(r) for r in rows], sign=sign)
        shape["poly"] = [{"exp": list(mono), "coef": str(prim.terms[mono])}
                         for mono in sorted(prim.terms, reverse=True)]
    return mutate


def _reorder(*ids):
    """A mutation that writes records ids in the order given, in the places
    they held, and renumbers every reference to them, the tree's included:
    each record still replays, only gen's order is broken."""
    def mutate(doc):
        new = dict(zip(ids, sorted(ids)))
        shapes, tree = doc["shapes"], doc["tree"]
        for old, moved in [(i, shapes[i]) for i in ids]:
            shapes[new[old]] = moved
        refs = ([(s, "id") for s in shapes]
                + [(s["provenance"], "parent") for s in shapes]
                + [(e, end) for e in tree["edges"] for end in ("child",
                                                               "parent")]
                + [(e, end) for e in tree["extra_edges"] for end in ("from",
                                                                     "to")])
        for obj, key in refs:
            obj[key] = new.get(obj[key], obj[key])
        tree["edges"].sort(key=lambda edge: edge["child"])
    return mutate


def _restate_tree_edge(doc):
    # child 1 is at the top grade below the root, so the copy is in order
    edge = doc["tree"]["edges"][0]
    doc["tree"]["extra_edges"].insert(0, {
        "from": edge["parent"], "to": edge["child"], "word": edge["word"],
        "sign": doc["shapes"][edge["child"]]["provenance"]["sign"]})


# each an edit of a (2,3) artifact ("23") or of a (3,3) one, default
# ("extra") or oracle-filled ("oracle"), that one check rejects (exit 5)
@pytest.mark.parametrize("key,mutate,message", [
    ("23", _raise_entropy, "record 1: entropy"),
    ("23", _set(("shapes", 0, "provenance", "parent"), 1),
     "record 0: root provenance has fields ['parent'], gen writes []"),
    ("23", _set(("shapes", 1, "provenance", "kind"), "x"),
     "record 1: unknown provenance kind"),
    ("23", _set(("shapes", 1, "provenance", "kind"), []),
     "record 1: unknown provenance kind"),
    ("23", _set(("shapes", 1, "poly"), []), "record 1: replay"),
    ("23", _copy_fields(0, 1, "poly"), "record 1: replay"),
    # a grade-6 determinant in gen's place for a grade-7 one: it replays
    ("oracle", _refill_oracle(2, ((0, 0, 0), (0, 0, 1), (5, 0, 0))),
     "record 2: polynomial grade differs from the stated grade"),
    ("23", _set(("shapes", 0, "provenance", "content"), "2"),
     "record 0: replay"),
    ("23", _set(("shapes", 1, "provenance", "parent"), None),
     "record 1: word provenance has fields ['word'], "
     "gen writes ['parent', 'word']"),
    ("oracle", _set(("shapes", 1, "provenance", "rows"), None),
     "record 1: oracle provenance has fields [], gen writes ['rows']"),
    ("extra", _set(("tree", "extra_edges", 0, "to"), 99),
     "references unknown ids"),
    # t[-9] lowers coordinate 0 past every row: the replay is zero
    ("23", _set(("shapes", 1, "provenance", "word"), "t[-9]"),
     "record 1: replay"),
    ("23", _set(("n",), 0), "invalid dimensions"),
    # a grade-7 oracle fill in the coinvariant ideal: it replays and keeps
    # gen's order, but the certificate finds the grade one class short
    ("oracle", _refill_oracle(2, ((0, 0, 0), (0, 0, 1), (6, 0, 0))),
     "completeness: grade 7: normal forms have rank 2 of 3"),
    # the descent tries each (parent, word) pair once, so a pair is a tree
    # edge or an extra edge, never both
    ("extra", _restate_tree_edge, "listed twice"),
    # gen writes records grade down: the root, then each grade's word
    # records in the descent's candidate order, then its oracle fills by
    # rows; each reordered record still replays
    ("extra", _reorder(8, 7), "record 8: out of gen's order"),
    ("oracle", _reorder(2, 1), "record 2: out of gen's order"),
    ("oracle", _reorder(35, 33, 34), "record 34: out of gen's order"),
], ids=["entropy", "root-parent", "kind-name", "kind-list", "zero-poly",
        "poly-of-other-grade", "oracle-fill-of-other-grade", "root-content",
        "word-no-parent", "oracle-no-rows", "extra-edge-to-99",
        "word-kills-parent", "n-0", "certificate", "tree-edge-restated",
        "leaf-words-swapped", "oracle-fills-swapped", "oracle-fill-first"])
def test_verify_rejects_record_fields(tmp_path, capsys, request, key, mutate,
                                      message):
    text = (request.getfixturevalue("artifact_text") if key == "23"
            else request.getfixturevalue("artifacts_33")[key])
    rc, _, err = run(capsys, "verify", damaged(tmp_path, text, mutate))
    assert rc == 5, err
    assert message in err


@pytest.mark.parametrize("mutate", [
    _set(("shapes",), None),
    _set(("shapes",), 5),
    _set(("shapes", 0, "poly"), None),
    _set(("shapes", 1, "provenance", "word"), "x[-1]t[-1]"),
    _set(("shapes", 0, "poly", 0, "exp"), [3, 0, 0, 0, 0]),
    _set(("shapes", 0, "poly", 0, "exp"), [3, 0, 0, 0, 0, 0, 0]),
    _set(("shapes", 0, "poly", 0, "exp", 1), -1),
    _set(("generator_order",), "0"),
], ids=["shapes-null", "shapes-number", "poly-null", "word-coordinate",
        "exp-short", "exp-long", "exp-negative", "generator-order"])
def test_verify_rejects_malformed_artifact(tmp_path, capsys, artifact_text,
                                           mutate):
    rc, _, err = run(capsys, "verify", damaged(tmp_path, artifact_text, mutate))
    assert rc == 2
    assert "cannot load" in err


def test_verify_random_edits_never_traceback(tmp_path, capsys, artifact_text):
    # seeded edits anywhere in a valid artifact: each one is either
    # rejected with a documented exit code or harmless, that is, it left
    # the JSON value as it was and the document loads to the original,
    # byte for byte
    base = json.loads(artifact_text)
    slots = []

    def walk(node, path):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            slots.append(path + (key,))
            if isinstance(child, (dict, list)):
                walk(child, path + (key,))

    walk(base, ())
    values = [None, 5, -1, 0, "x", "0", [], {}, True, 1.5, "x[-1]", 10**6,
              10**400, float("inf")]
    rng = random.Random(7)
    edits = [(path, _set(path, rng.choice(values)))
             for path in (rng.choice(slots) for _ in range(300))]
    # structural edits: duplicate a list element, swap two neighbours, or
    # add a key the writer does not write
    lists = [path for path in [()] + slots if isinstance(_at(base, path), list)
             and _at(base, path)]
    dicts = [path for path in [()] + slots if isinstance(_at(base, path), dict)]
    for _ in range(100):
        path = rng.choice(lists)
        i = rng.randrange(len(_at(base, path)))
        edits.append((path + ("duplicate", i), _duplicate(path, i)))
        if i + 1 < len(_at(base, path)):
            edits.append((path + ("swap", i), _swap(path, i)))
        path = rng.choice(dicts)
        edits.append((path + ("unknown",), _add_key(path)))
    # entropies gen never writes: another value, or its value spelled
    # another way
    for k in range(len(base["shapes"])):
        path = ("shapes", k, "entropy")
        for i, spell in enumerate((
                lambda e: math.nextafter(e, -1),
                lambda e: math.nextafter(e, 2),
                lambda e: e * (1 + rng.choice((1e-13, 1e-12, 1e-9))),
                lambda e: _raw(f"{e!r}0"),
                lambda e: _raw(f"{e:.17e}"))):
            edits.append((path + ("respelled", i), _respell(path, spell)))
    for path, mutate in edits:
        edited = damaged(tmp_path, artifact_text, mutate)
        rc, _, _ = run(capsys, "verify", edited)
        assert rc in (0, 2, 5), path
        if rc == 0:
            assert Path(edited).read_text() == json.dumps(base), path
            with open(edited, encoding="utf-8") as fh:
                reloaded = dumps_document(loads_document(fh))
            assert reloaded == artifact_text, path


def test_verify_missing_file(tmp_path, capsys):
    rc, _, err = run(capsys, "verify", str(tmp_path / "absent.json"))
    assert rc == 2
    assert "cannot load" in err


def test_verify_malformed_json(tmp_path, capsys):
    path = tmp_path / "shapes.json"
    path.write_text("{not json")
    rc, _, err = run(capsys, "verify", str(path))
    assert rc == 2


def test_verify_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "shapes.json"
    path.write_text("[" * 200000 + "]" * 200000)
    rc, _, err = run(capsys, "verify", str(path))
    assert rc == 2
    assert "cannot load" in err


@pytest.mark.parametrize("n", [5000, 10**400], ids=["5000", "1e400"])
def test_verify_huge_particle_count(tmp_path, capsys, artifact_text, n):
    # n!^(d-1) is too large to print, or to form at all
    def mutate(doc):
        doc["n"] = n
        doc["shapes"] = []
    rc, _, err = run(capsys, "verify", damaged(tmp_path, artifact_text, mutate))
    assert rc == 5
    assert "shape count" in err
    assert f"n={n} d=3" in err


def test_verify_frees_text_before_building_document(tmp_path, capsys,
                                                    artifact_text,
                                                    monkeypatch):
    # whitespace padding makes the text far larger than what it parses to
    path = tmp_path / "shapes.json"
    path.write_text(artifact_text + " " * 20_000_000)
    held = []

    def spy(data):
        held.append(tracemalloc.get_traced_memory()[0])
        return document_from_dict(data)

    monkeypatch.setattr("shapeforge.serialize.document_from_dict", spy)
    tracemalloc.start()
    try:
        rc, _, _ = run(capsys, "verify", str(path))
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert held[0] < 10_000_000


# --- verify replay on artifacts with extra edges and oracle records ----------

@pytest.fixture(scope="module")
def artifacts_33(tmp_path_factory):
    """(3,3) artifacts: the default run (19 extra edges) and a run whose
    grades the oracle fills (--max-letters 1)."""
    texts = {}
    for key, extra in (("extra", ()), ("oracle", ("--max-letters", "1"))):
        out = tmp_path_factory.mktemp(key)
        assert main(["gen", "-N", "3", "-d", "3", *extra,
                     "--out", str(out)]) == 0
        texts[key] = (out / "shapes.json").read_text()
    assert len(json.loads(texts["extra"])["tree"]["extra_edges"]) == 19
    assert any(s["provenance"]["kind"] == "oracle"
               for s in json.loads(texts["oracle"])["shapes"])
    return texts


@pytest.mark.parametrize("key", ["extra", "oracle"])
def test_verify_accepts_extra_edges_and_oracle_records(tmp_path, capsys,
                                                       artifacts_33, key):
    path = tmp_path / "shapes.json"
    path.write_text(artifacts_33[key])
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 0
    assert "verified 36 shapes for n=3 d=3" in out


def _flip_extra_edge_sign(doc):
    edge = doc["tree"]["extra_edges"][0]
    edge["sign"] = -edge["sign"]


def _retarget_extra_edge(doc):
    edge = doc["tree"]["extra_edges"][0]
    grade = doc["shapes"][edge["to"]]["grade"]
    edge["to"] = next(s["id"] for s in doc["shapes"]
                      if s["grade"] == grade and s["id"] != edge["to"])


def _first_provenance(doc, kind):
    return next(s["provenance"] for s in doc["shapes"]
                if s["provenance"]["kind"] == kind)


def _flip_provenance_sign(kind):
    def mutate(doc):
        pv = _first_provenance(doc, kind)
        pv["sign"] = -pv["sign"]
    return mutate


def _swap_oracle_rows(doc):
    rows = _first_provenance(doc, "oracle")["rows"]
    rows[0], rows[1] = rows[1], rows[0]


def _swap_oracle_rows_and_sign(doc):
    # the swap flips the determinant's sign, and the flipped provenance sign
    # flips it back; gen lists the rows ascending and verify replays them
    # as listed, so the record still fails
    _swap_oracle_rows(doc)
    _flip_provenance_sign("oracle")(doc)


@pytest.mark.parametrize("key,mutate", [
    ("extra", _flip_extra_edge_sign),
    ("extra", _retarget_extra_edge),
    ("extra", _flip_provenance_sign("word")),
    ("oracle", _flip_provenance_sign("oracle")),
    ("oracle", _swap_oracle_rows),
    ("oracle", _swap_oracle_rows_and_sign),
], ids=["extra-edge-sign", "extra-edge-target", "word-sign", "oracle-sign",
        "oracle-rows-swapped", "oracle-rows-and-sign"])
def test_verify_rejects_replay_edits(tmp_path, capsys, artifacts_33, key,
                                     mutate):
    rc, _, err = run(capsys, "verify",
                     damaged(tmp_path, artifacts_33[key], mutate))
    assert rc == 5
    assert "replay" in err


def _append_copy(*path):
    """A mutation that appends a copy of the first item of a list."""
    def mutate(doc):
        node = _at(doc, path)
        node.append(dict(node[0]))
    return mutate


def test_verify_rejects_a_child_with_two_tree_edges(tmp_path, capsys,
                                                    artifacts_33):
    rc, _, err = run(capsys, "verify", damaged(
        tmp_path, artifacts_33["extra"], _append_copy("tree", "edges")))
    assert rc == 2
    assert "tree: not in the form the writer gives it" in err


def _reparent_tree_edge(doc):
    edge = next(e for e in doc["tree"]["edges"] if e["child"] == 5)
    edge["parent"] = 0 if edge["parent"] else 1


def _tree_edge_into_root(doc):
    edges = doc["tree"]["edges"]
    edges.insert(0, dict(edges[0], child=0))


# the tree edges say nothing the word records' provenance does not: an
# edge whose parent disagrees with its record, or an edge into the root
@pytest.mark.parametrize("mutate", [_reparent_tree_edge, _tree_edge_into_root],
                         ids=["edge-5-parent", "edge-into-root"])
def test_verify_rejects_tree_edges_apart_from_provenance(tmp_path, capsys,
                                                         artifacts_33, mutate):
    rc, _, err = run(capsys, "verify",
                     damaged(tmp_path, artifacts_33["extra"], mutate))
    assert rc == 5
    assert "tree edge" in err


@pytest.fixture(scope="module")
def one_determinant_artifacts(tmp_path_factory):
    """(2,1) and (1,3) artifacts, whose source shape is one Slater
    determinant: record 0, the root, is the whole shape set."""
    texts = {}
    for n, d in ((2, 1), (1, 3)):
        out = tmp_path_factory.mktemp(f"one-{n}-{d}")
        assert main(["gen", "-N", str(n), "-d", str(d),
                     "--out", str(out)]) == 0
        texts[n, d] = (out / "shapes.json").read_text()
    return texts


def _relabel_root_as_oracle(root):
    """A mutation that relabels record 0 as an oracle fill of its one
    determinant, which replays, and names `root` as the tree's root."""
    def mutate(doc):
        [(rows, coef)] = document_from_dict(doc).records[0].slater.items()
        doc["shapes"][0]["provenance"].update(
            kind="oracle", rows=[list(r) for r in rows], sign=coef)
        doc["tree"]["root"] = root
    return mutate


@pytest.mark.parametrize("n,d", [(2, 1), (1, 3)])
def test_verify_accepts_a_one_determinant_artifact(tmp_path, capsys,
                                                   one_determinant_artifacts,
                                                   n, d):
    path = tmp_path / "shapes.json"
    path.write_text(one_determinant_artifacts[n, d])
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 0
    assert f"verified 1 shapes for n={n} d={d}" in out


# gen writes the source shape as the root record, and names it the root
@pytest.mark.parametrize("n,d", [(2, 1), (1, 3)])
@pytest.mark.parametrize("mutate", [
    _relabel_root_as_oracle(0),
    _relabel_root_as_oracle(7),
    _set(("tree", "root"), 7),
], ids=["oracle-root", "oracle-root-7", "root-7"])
def test_verify_rejects_a_root_gen_never_writes(tmp_path, capsys,
                                                one_determinant_artifacts,
                                                n, d, mutate):
    rc, _, err = run(capsys, "verify", damaged(
        tmp_path, one_determinant_artifacts[n, d], mutate))
    assert rc == 5
    assert "tree root is not the root record" in err


def test_verify_rejects_an_extra_edge_listed_twice(tmp_path, capsys,
                                                    artifacts_33):
    rc, _, err = run(capsys, "verify", damaged(
        tmp_path, artifacts_33["extra"], _append_copy("tree", "extra_edges")))
    assert rc == 5
    assert "listed twice" in err


@pytest.mark.parametrize("path", [
    (), ("shapes", 0), ("shapes", 1, "provenance"), ("tree",),
    ("tree", "edges", 0), ("tree", "extra_edges", 0),
], ids=["document", "shape", "provenance", "tree", "edge", "extra-edge"])
def test_verify_rejects_unknown_keys(tmp_path, capsys, artifacts_33, path):
    def mutate(doc):
        node = doc
        for key in path:
            node = node[key]
        node["unknown"] = 0
    rc, _, err = run(capsys, "verify",
                     damaged(tmp_path, artifacts_33["extra"], mutate))
    assert rc == 2
    assert "unknown key 'unknown'" in err


def test_verify_rejects_a_missing_null_key(tmp_path, capsys, artifacts_33):
    # gen writes "rows": null on a word record; leaving it out is not the same
    def mutate(doc):
        del _first_provenance(doc, "word")["rows"]
    rc, _, err = run(capsys, "verify",
                     damaged(tmp_path, artifacts_33["extra"], mutate))
    assert rc == 2
    assert "missing 'rows'" in err


def _exponent_true(doc):
    exp = doc["shapes"][0]["poly"][0]["exp"]
    exp[exp.index(1)] = True


# forms gen never writes, each a (3,3) artifact edit: a term list that is
# not the ordered expansion of its Slater coefficients, extra edges out of
# the descent's order, or an entropy one float off, fail verification
# (exit 5); a second spelling (of a float, any text but its repr), a wrong
# type or tree edges out of order do not load (exit 2)
@pytest.mark.parametrize("mutate,code", [
    (_duplicate(("shapes", 1, "poly")), 5),
    (_swap(("shapes", 1, "poly")), 5),
    (_swap(("tree", "extra_edges")), 5),
    (_swap(("tree", "edges")), 2),
    (_respell(("shapes", 1, "poly", 0, "coef"), lambda c: "+" + c), 2),
    (_respell(("shapes", 1, "poly", 0, "coef"), lambda c: " " + c), 2),
    (_respell(("shapes", 1, "provenance", "content"), lambda c: "0" + c), 2),
    (_respell(("shape_poly", 3), lambda c: "0" + c), 2),
    (_respell(("shapes", 1, "id"), str), 2),
    (_respell(("shapes", 1, "grade"), str), 2),
    (_respell(("shapes", 1, "provenance", "sign"), str), 2),
    (_respell(("tree", "extra_edges", 0, "sign"), str), 2),
    (_respell(("n",), str), 2),
    (_respell(("shapes", 0, "entropy"), int), 2),
    (_respell(("shapes", 1, "entropy"), lambda e: math.nextafter(e, 2)), 5),
    (_respell(("shapes", 1, "entropy"), lambda e: _raw("1.0986122886691098")),
     2),
    (_respell(("shapes", 1, "entropy"), lambda e: _raw("1.098612288668e0")),
     2),
    (_respell(("shapes", 1, "entropy"), lambda e: _raw("1.09861228866810980")),
     2),
    (_exponent_true, 2),
    (_add_key(("shapes", 0, "poly", 0)), 2),
], ids=["term-twice", "terms-swapped", "extra-edges-swapped",
        "tree-edges-swapped", "coef-plus", "coef-space", "content-01",
        "shape-poly-03", "id-string", "grade-string", "sign-string",
        "extra-edge-sign-string", "n-string", "entropy-int",
        "entropy-next-float", "entropy-other-digits", "entropy-exponent",
        "entropy-trailing-zero", "exp-true", "term-key"])
def test_verify_accepts_only_the_writers_form(tmp_path, capsys, artifacts_33,
                                              mutate, code):
    rc, _, err = run(capsys, "verify",
                     damaged(tmp_path, artifacts_33["extra"], mutate))
    assert rc == code, err
    assert ("verify failed" if code == 5 else "cannot load") in err


@pytest.mark.parametrize("layout", [{"separators": (",", ":")},
                                    {"indent": 7}], ids=["minified", "indent-7"])
def test_verify_accepts_any_json_whitespace(tmp_path, capsys, artifacts_33,
                                            layout):
    path = tmp_path / "shapes.json"
    path.write_text(json.dumps(json.loads(artifacts_33["extra"]), **layout))
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 0
    assert "verified 36 shapes for n=3 d=3" in out


# --- count ------------------------------------------------------------------

def test_count_golden_table(capsys):
    rc, out, _ = run(capsys, "count", "-N", "3", "-d", "3", "-g", "9")
    assert rc == 0
    rows = [line.split() for line in out.splitlines()]
    assert [int(r[1]) for r in rows] == [
        0, 0, 3, 19, 63, 180, 443, 978, 1998, 3838]


def test_count_oracle_column_agrees(capsys):
    rc, out, _ = run(capsys, "count", "-N", "2", "-d", "1", "-g", "4",
                     "--oracle")
    assert rc == 0
    rows = [line.split() for line in out.splitlines()]
    assert [(int(r[1]), int(r[2])) for r in rows] == [
        (0, 0), (1, 1), (1, 1), (2, 2), (2, 2)]


def test_count_oracle_mismatch_exit_code(capsys, monkeypatch):
    monkeypatch.setattr("shapeforge.cli.slater_basis",
                        lambda n, d, g: [None] * (g + 7))
    rc, _, err = run(capsys, "count", "-N", "2", "-d", "1", "-g", "2",
                     "--oracle")
    assert rc == 4
    assert "count mismatch" in err


def test_count_rejects_negative_grade(capsys):
    rc, _, _ = run(capsys, "count", "-N", "2", "-d", "3", "-g", "-1")
    assert rc == 2


# --- parser plumbing ---------------------------------------------------------

def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert main([]) == 2
    assert main(["poly", "-N", "2", "-d", "3", "--nope"]) == 2


@pytest.mark.parametrize("argv", [
    ("count", "-N", "3", "-d", "3", "-g", "9", "--oracle"),
    ("poly", "-N", "3", "-d", "3"),
], ids=["count", "poly"])
def test_closed_stdout_exits_2_without_traceback(argv):
    # a pipe whose read end is closed before the command starts; run in a
    # child, since pointing fd 1 at devnull here would take pytest's stdout
    src = Path(__file__).resolve().parents[1] / "src"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "shapeforge.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})
    finally:
        os.close(write_end)
    assert child.returncode == 2, child.stderr
    assert "Traceback" not in child.stderr
    assert "error: cannot write to stdout" in child.stderr
