"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps shapeforge's public layer functions from the outside,
where they are bound: `from .shiftops import apply_symword` copies the
binding into `engine` and `cli`, so every shapeforge module holding the
original object gets the wrapper.  Methods are wrapped on their class.
Each call records one span: name, parent span, start, end and an
optional attribute (a count taken from the arguments or the result).
Spans stay in memory; `dump` writes them out when the process is done.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import Counter, defaultdict


def _descent_attr(args, result):
    rep = result.report
    tried = sum(s.tried for s in rep.per_grade.values())
    accepted = sum(1 for dec in rep.decisions if dec[3] == "accepted")
    return [tried, accepted]


def _decompose_rows(args, result):
    # express_in_basis builds one recipe row per (record, generator
    # monomial) pair that lands on psi's grade
    from shapeforge.engine import generator_monomials

    psi, records, n, d = args[:4]
    if psi.is_zero():
        return 0
    g = psi.grade()
    return sum(len(generator_monomials(n, d, g - rec.grade))
               for rec in records if rec.grade <= g)


def _text_bytes(args, result):
    return len(result.encode("utf-8"))


# (module, attribute, span name, attribute recorder)
LAYERS = [
    ("shapeforge.qseries", "shape_poly", "qseries", None),
    ("shapeforge.qseries", "state_count_series", "qseries", None),
    ("shapeforge.qseries", "shape_entropy", "qseries", None),
    ("shapeforge.multipoly", "MPoly.__mul__", "multipoly.mul",
     lambda args, out: len(out.terms)),
    ("shapeforge.multipoly", "MPoly.is_antisymmetric",
     "multipoly.antisym_check", None),
    ("shapeforge.multipoly", "MPoly.normalized", "multipoly.normalize", None),
    ("shapeforge.multipoly", "antisymmetrize", "multipoly.antisymmetrize", None),
    ("shapeforge.shiftops", "apply_symword", "shiftops.apply",
     lambda args, out: [len(args[1].terms), out.is_zero()]),
    ("shapeforge.exactla", "SparseIntMatrix.try_extend", "exactla.try_extend",
     lambda args, out: out),
    ("shapeforge.engine", "build_vocabulary", "engine.vocab",
     lambda args, out: len(out)),
    ("shapeforge.engine", "enumerate_shapes", "engine.descent", _descent_attr),
    ("shapeforge.engine", "verify_completeness", "engine.certificate", None),
    ("shapeforge.engine", "express_in_basis", "engine.decompose",
     _decompose_rows),
    ("shapeforge.serialize", "dumps_document", "serialize.dump", _text_bytes),
    ("shapeforge.serialize", "document_to_dot", "serialize.dump", _text_bytes),
    ("shapeforge.serialize", "report_to_text", "serialize.dump", _text_bytes),
    ("shapeforge.serialize", "loads_document", "serialize.load", None),
    ("shapeforge.cli", "_verify_document", "cli.verify_replay", None),
]


class Tracer:
    """Records spans as [name, parent index, start, end, attribute]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, attr):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
            if attr is not None:
                rec[4] = attr(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every layer function wherever a shapeforge module binds it."""
        for modname, attr_path, name, attr in LAYERS:
            module = importlib.import_module(modname)
            if "." in attr_path:
                cls_name, meth = attr_path.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(name, cls.__dict__[meth], attr))
                continue
            original = getattr(module, attr_path)
            wrapper = self._wrap(name, original, attr)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("shapeforge")
                        and getattr(mod, attr_path, None) is original):
                    self._patch(mod, attr_path, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around code the benchmark runs itself, such as one op."""
        index = len(self.spans)
        rec = [name, self._stack[-1] if self._stack else -1,
               time.perf_counter(), 0.0, None]
        self.spans.append(rec)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            rec[3] = time.perf_counter()

    def adopt(self, spans: list[list], parent: int):
        """Append spans recorded by a child process under one parent span."""
        base = len(self.spans)
        for name, par, start, end, attr in spans:
            self.spans.append(
                [name, parent if par < 0 else par + base, start, end, attr])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _self_times(spans: list[list]) -> tuple[Counter, dict[str, float]]:
    """Calls and summed self time per span name.

    A span's self time is its duration minus its direct children's
    durations; calls in one thread nest, so the children never overlap.
    """
    child_time = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, _, start, end, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child_time[i]
    return calls, self_s


_SCOPES = ("engine.certificate", "engine.decompose")


def _scope_counts(spans: list[list]) -> dict[int, Counter]:
    """Products and rank rows under each certificate or decomposition
    call, keyed by that call's span index (parents precede children)."""
    scope = [-1] * len(spans)
    counts: dict[int, Counter] = {}
    for i, (name, parent, _, _, _) in enumerate(spans):
        if name in _SCOPES:
            scope[i] = i
            counts[i] = Counter()
        elif parent >= 0:
            scope[i] = scope[parent]
            if scope[i] >= 0:
                counts[scope[i]][name] += 1
    return counts


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Per-op counts and self times per layer, plus whole-run ratios."""
    calls, self_s = _self_times(spans)
    mul_terms = apply_terms = apply_zero = accepted = 0
    tried = found = words = bytes_out = 0
    for name, _, _, _, attr in spans:
        if attr is None:    # the call raised, or the span has no attribute
            continue
        if name == "multipoly.mul":
            mul_terms += attr
        elif name == "exactla.try_extend":
            accepted += bool(attr)
        elif name == "shiftops.apply":
            apply_terms += attr[0]
            apply_zero += attr[1]
        elif name == "engine.descent":
            tried += attr[0]
            found += attr[1]
        elif name == "engine.vocab":
            words += attr
        elif name == "serialize.dump":
            bytes_out += attr

    cert_products = cert_rows = dec_products = dec_rows = 0
    for i, counts in _scope_counts(spans).items():
        if spans[i][0] == "engine.certificate":
            cert_products += counts["multipoly.mul"]
            cert_rows += counts["exactla.try_extend"]
        else:
            dec_products += counts["multipoly.mul"]
            dec_rows += spans[i][4] or 0

    per_op = 1.0 / max(ops, 1)
    return {
        "qseries.calls": calls["qseries"] * per_op,
        "qseries.self_s": self_s["qseries"] * per_op,
        "multipoly.mul.calls": calls["multipoly.mul"] * per_op,
        "multipoly.mul.self_s": self_s["multipoly.mul"] * per_op,
        "multipoly.mul.terms_out": mul_terms * per_op,
        "multipoly.antisym_check.self_s":
            self_s["multipoly.antisym_check"] * per_op,
        "multipoly.normalize.self_s": self_s["multipoly.normalize"] * per_op,
        "multipoly.antisymmetrize.calls":
            calls["multipoly.antisymmetrize"] * per_op,
        "shiftops.apply.calls": calls["shiftops.apply"] * per_op,
        "shiftops.apply.self_s": self_s["shiftops.apply"] * per_op,
        "shiftops.apply.terms_in": apply_terms * per_op,
        "shiftops.apply.zero_ratio": _ratio(apply_zero, calls["shiftops.apply"]),
        "exactla.try_extend.calls": calls["exactla.try_extend"] * per_op,
        "exactla.try_extend.self_s": self_s["exactla.try_extend"] * per_op,
        "exactla.accept_ratio": _ratio(accepted, calls["exactla.try_extend"]),
        "engine.vocab.self_s": self_s["engine.vocab"] * per_op,
        "engine.vocab.words": words * per_op,
        "engine.descent.self_s": self_s["engine.descent"] * per_op,
        "engine.descent.tried": tried * per_op,
        "engine.descent.accept_ratio": _ratio(found, tried),
        "engine.certificate.self_s": self_s["engine.certificate"] * per_op,
        "engine.certificate.rows": cert_rows * per_op,
        "engine.certificate.products_per_row": _ratio(cert_products, cert_rows),
        "engine.decompose.self_s": self_s["engine.decompose"] * per_op,
        "engine.decompose.products_per_row": _ratio(dec_products, dec_rows),
        "serialize.dump.self_s": self_s["serialize.dump"] * per_op,
        "serialize.load.self_s": self_s["serialize.load"] * per_op,
        "serialize.bytes_out": bytes_out * per_op,
        "cli.verify_replay.self_s": self_s["cli.verify_replay"] * per_op,
    }


def certificate_calls(spans: list[list]) -> list[str]:
    """'products/rows' for each certificate call, in call order."""
    return [f"{c['multipoly.mul']}/{c['exactla.try_extend']}"
            for i, c in _scope_counts(spans).items()
            if spans[i][0] == "engine.certificate"]


def layer_table(spans: list[list], ops: int) -> str:
    """Calls and self time per op for each span name, largest first."""
    calls, self_s = _self_times(spans)
    total = sum(self_s.values()) or 1.0
    per_op = 1.0 / max(ops, 1)
    lines = [f"{'layer':28s} {'calls/op':>12s} {'self s/op':>11s} {'share':>7s}"]
    for name in sorted(self_s, key=self_s.get, reverse=True):
        lines.append(f"{name:28s} {calls[name] * per_op:12.1f} "
                     f"{self_s[name] * per_op:11.4f} {self_s[name] / total:7.1%}")
    return "\n".join(lines)
