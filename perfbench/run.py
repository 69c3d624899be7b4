"""Benchmark for shapeforge: a closed loop with one client, one op at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from the
checkout's src/, with nothing installed.  Workloads (BENCHMARK.json says
why each was chosen):

  certify    `shapeforge gen -N 3 -d 3` with the completeness certificate,
             then `shapeforge verify` on the shapes.json it wrote.
  descent    `shapeforge gen --exhaustive --no-verify` for (3,3), then for
             (2,5), as one op.
  decompose  express_in_basis on seeded random antisymmetric (3,3) states,
             one per grade 5..8 in each op, in a warmed-up process.

Each CLI command runs in its own fresh interpreter, one at a time, so no
op reuses a cache that an earlier op filled.  A decompose op also gets a
fresh interpreter, which first warms itself up the way a long-lived
library process would be (timed as set-up) and then decomposes its
states (timed as the op).  Every op checks its output:
gen artifacts against SHA-256 digests in goldens.json (captured from the
parent commit of this benchmark), verify by exit code and message, and a
decomposition by assembling it back into the state.  A failed op is
counted, never dropped.

While a child runs, the parent probes the machine's speed (probe.py).
The gated op time, op_ref_s, is the median op time at the probe's
reference speed, and setup_s is the median set-up time at that speed;
the wall times are in the run info.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
runs each op untraced and then traced, and reports per-layer metrics from
the spans (see spans.py) and the difference as the tracing overhead.  The
last stdout line is the JSON result; the line before it holds run info
that is recorded but not gated.  Files go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from probe import Probe
from spans import Tracer, certificate_calls, layer_metrics, layer_table

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 9
STEP_TIMEOUT_S = 170

# Cases per workload.  "small" is the self-test's (2,3) size.  decompose
# stops at grade 8: a grade-9 state takes 9-11 s, so a run held one or
# two of them and its median moved with every slow spell of the machine.
SIZES = {
    "full": {
        "certify": (3, 3),
        "descent": ((3, 3), (2, 5)),
        "decompose": (3, 3, (5, 6, 7, 8)),
    },
    "small": {
        "certify": (2, 3),
        "descent": ((2, 3),),
        "decompose": (2, 3, (1, 2, 3)),
    },
}


class SetupError(RuntimeError):
    """The program could not be started or prepared for the workload."""


@dataclass
class DecomposeSetup:
    records: list
    n: int
    d: int
    grades: tuple[int, ...]
    seconds: float


def decompose_setup(size: str) -> DecomposeSetup:
    """Import shapeforge, build the shape records and warm the process.

    The warm-up expands every generator monomial the sweep's grades can
    need, once, through `assemble`, so the timed ops see the caches a
    long-lived library process would have.
    """
    t0 = time.perf_counter()
    from shapeforge.engine import assemble, enumerate_shapes, generator_monomials

    n, d, grades = SIZES[size]["decompose"]
    records = enumerate_shapes(n, d).records
    lowest = min(rec.grade for rec in records)
    warm = [{} for _ in records]
    warm[-1] = {gexp: 1 for k in range(max(grades) - lowest + 1)
                for gexp in generator_monomials(n, d, k)}
    assemble(records, warm, n, d)
    return DecomposeSetup(records, n, d, grades, time.perf_counter() - t0)


def decompose_state(seed: int, op: int, grade: int, n: int, d: int):
    """A random integer combination of antisymmetrized occupation sets."""
    from shapeforge.multipoly import MPoly, antisymmetrize, slater_basis

    rng = random.Random(f"{seed}/{op}/{grade}")
    basis = slater_basis(n, d, grade)
    psi = MPoly.zero(n, d)
    for rows in rng.sample(basis, min(3, len(basis))):
        coeff = rng.choice((-3, -2, -1, 1, 2, 3))
        psi = psi + antisymmetrize(list(rows)).scale(coeff)
    return psi


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


class Run:
    """State of one benchmark run: inputs, samples and failure counts."""

    def __init__(self, workload: str, seed: int, size: str):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.cases = SIZES[size]
        self.work = WORK / workload
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.goldens = json.loads((BENCH_DIR / "goldens.json").read_text())
        self.tracer: Tracer | None = None   # set while a traced op runs
        self.probe = Probe()
        self.setup_samples: list[float] = []       # wall seconds
        self.setup_ref_samples: list[float] = []   # at reference speed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"op failed: {what}", file=sys.stderr)

    def fresh_dir(self, name: str) -> Path:
        # a gen that fails must not leave an earlier op's artifacts behind
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        return path

    @contextlib.contextmanager
    def region(self, name: str):
        if self.tracer is None:
            yield -1
        else:
            with self.tracer.region(name) as index:
                yield index

    def run_child(self, cmd: list[str], label: str, spans_file=None):
        """Run one child process while probing the machine's speed.

        Returns (seconds, seconds at reference speed, completed process
        or None on timeout).  A traced child writes its spans to
        spans_file, and they are adopted under this op's span.
        """
        if spans_file is not None:
            spans_file.unlink(missing_ok=True)
        with self.region(label) as index:
            t0 = time.monotonic()
            child = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
            try:
                out, err = self.probe.wait(child, STEP_TIMEOUT_S)
                proc = subprocess.CompletedProcess(cmd, child.returncode,
                                                   out, err)
            except subprocess.TimeoutExpired:
                proc = None
            t1 = time.monotonic()
        seconds = t1 - t0
        ref = self.probe.ref_seconds(seconds, t0, t1)
        if proc is not None and proc.returncode != 0:
            print(proc.stderr, file=sys.stderr, end="")
        if spans_file is not None:
            with contextlib.suppress(OSError, ValueError):
                self.tracer.adopt(json.loads(spans_file.read_text()), index)
                spans_file.unlink()
        return seconds, ref, proc

    def cli(self, args: list[str], label: str):
        """Run one shapeforge command as a fresh `shapeforge` would."""
        if self.tracer is None:
            return self.run_child([sys.executable, "-m", "shapeforge.cli", *args],
                                  label)
        spans_file = self.work / "child.spans.json"
        return self.run_child([sys.executable, str(BENCH_DIR / "child.py"),
                               "cli", str(spans_file), *args], label, spans_file)

    def gen_ok(self, proc, key: str, out: Path) -> bool:
        golden = self.goldens[key]
        return (proc is not None and proc.returncode == 0
                and all(_sha256(out / name) == digest
                        for name, digest in golden.items()))


# --- ops: each returns (op seconds, op seconds at reference speed, named
# timings for the run info) -------------------------------------------------

def certify_op(run: Run, i: int):
    n, d = run.cases["certify"]
    key = f"gen -N {n} -d {d}"
    out = run.fresh_dir("out")
    gen_s, gen_ref_s, proc = run.cli([*key.split(), "--out", str(out)],
                                     "process.gen")
    run.check(run.gen_ok(proc, key, out), key)
    verify_s, verify_ref_s, proc = run.cli(["verify", str(out / "shapes.json")],
                                           "process.verify")
    expect = f"verified {math.factorial(n) ** (d - 1)} shapes"
    run.check(proc is not None and proc.returncode == 0
              and expect in proc.stdout, f"verify {key}")
    return gen_s + verify_s, gen_ref_s + verify_ref_s, {
        "gen_s": gen_s, "verify_s": verify_s,
        "gen_ref_s": gen_ref_s, "verify_ref_s": verify_ref_s}


def descent_op(run: Run, i: int):
    total = total_ref = 0.0
    for n, d in run.cases["descent"]:
        key = f"gen -N {n} -d {d} --exhaustive --no-verify"
        out = run.fresh_dir(f"out-{n}-{d}")
        seconds, ref, proc = run.cli([*key.split(), "--out", str(out)],
                                     "process.gen")
        run.check(run.gen_ok(proc, key, out), key)
        total += seconds
        total_ref += ref
    return total, total_ref, {"gen_s": total, "gen_ref_s": total_ref}


def decompose_sweep(size: str, seed: int, op: int,
                    tracer: Tracer | None) -> dict:
    """Warm up, then decompose one seeded state per grade and check each.

    Runs inside the op's own interpreter (child.py decompose).
    """
    setup_window = [time.monotonic()]
    st = decompose_setup(size)
    setup_window.append(time.monotonic())
    # looked up on the module at call time, so a traced op gets the wrapper
    import shapeforge.engine as engine

    timings, failures = {}, []
    window = [time.monotonic(), 0.0]
    for g in st.grades:
        psi = decompose_state(seed, op, g, st.n, st.d)
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            phis = engine.express_in_basis(psi, st.records, st.n, st.d)
        except Exception:   # counted as a failed op, not fatal to the run
            traceback.print_exc()
            phis = None
        timings[f"grade_{g}_s"] = time.perf_counter() - t0
        window[1] = time.monotonic()
        if tracer is not None:
            tracer.uninstall()
        try:
            ok = (phis is not None
                  and engine.assemble(st.records, phis, st.n, st.d) == psi)
        except ValueError:   # assemble refuses non-integer coefficients
            ok = False
        if not ok:
            failures.append(g)
    return {"setup_s": st.seconds, "setup_window": setup_window,
            "timings": timings, "window": window,
            "failed_grades": failures}


def decompose_op(run: Run, i: int):
    spans_file = run.work / "child.spans.json" if run.tracer else None
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "decompose", run.size,
           str(run.seed), str(i), str(spans_file or "-")]
    seconds, ref, proc = run.run_child(cmd, "process.decompose", spans_file)
    try:
        out = json.loads(proc.stdout.splitlines()[-1])
    except (AttributeError, IndexError, ValueError):
        out = None
    for g in run.cases["decompose"][2]:
        run.check(out is not None and g not in out["failed_grades"],
                  f"decompose grade {g} op {i}")
    if out is None:
        return seconds, ref, {}
    run.setup_samples.append(out["setup_s"])
    run.setup_ref_samples.append(
        run.probe.ref_seconds(out["setup_s"], *out["setup_window"]))
    total = sum(out["timings"].values())
    # at the machine speed the probe saw from the first timed grade to the
    # last, which leaves the op's warm-up out
    total_ref = run.probe.ref_seconds(total, *out["window"])
    return total, total_ref, {"decompose_s": total, "decompose_ref_s": total_ref,
                              **out["timings"]}


OPS = {"certify": certify_op, "descent": descent_op, "decompose": decompose_op}


# --- set-up -------------------------------------------------------------------

def setup(run: Run):
    """Prepare the run and time its set-up, at reference speed like ops.

    CLI workloads: SETUP_SAMPLES fresh interpreters import shapeforge.cli
    (the first time in a checkout this also byte-compiles the sources).
    decompose: every op's interpreter times its own warm-up instead.
    """
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    if run.workload == "decompose":
        return
    for _ in range(SETUP_SAMPLES):
        seconds, ref, proc = run.run_child(
            [sys.executable, "-c", "import shapeforge.cli"], "setup")
        if proc is None or proc.returncode != 0:
            raise SetupError("cannot import shapeforge.cli:\n"
                             f"{proc.stderr if proc else 'timed out'}")
        run.setup_samples.append(seconds)
        run.setup_ref_samples.append(ref)


# --- reporting ----------------------------------------------------------------

def summarize(values: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples
    beyond it (nearest rank), and the sample count."""
    vals = sorted(values)
    out = {"n": len(vals), "median": statistics.median(vals)}
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(vals) * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = vals[math.ceil(p / 100 * len(vals)) - 1]
            break
    return out


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_info() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure ops for about this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'small' runs the self-test's (2,3) cases")
    args = parser.parse_args(argv)
    if not (SRC / "shapeforge" / "__init__.py").is_file():
        print(f"error: no shapeforge sources in {SRC}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.size)
    try:
        setup(run)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1

    op = OPS[args.workload]
    tracer = Tracer() if args.trace else None
    # op seconds at reference speed, untraced and traced; and wall seconds
    op_times: dict[bool, list[float]] = {False: [], True: []}
    op_wall_times: list[float] = []
    timings: dict[str, list[float]] = defaultdict(list)
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        started = time.perf_counter()
        for traced in ((False, True) if tracer else (False,)):
            run.tracer = tracer if traced else None
            seconds, ref, named = op(run, i)
            op_times[traced].append(ref)
            if not traced:
                op_wall_times.append(seconds)
                for name, value in named.items():
                    timings[name].append(value)
        run.tracer = None
        i += 1
        # start no op that would likely end past the deadline, so a run
        # of long ops stays near --seconds (but always holds one op)
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break

    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    info = {
        "workload": args.workload,
        "why": whys[args.workload],
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "commit": _commit(),
        **_src_info(),
        "ops": i,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_ratio": run.failed / max(run.attempted, 1),
        "failures": run.failures[:10],
        "setup_samples_s": run.setup_samples,
        "setup_ref_samples_s": run.setup_ref_samples,
        "op_s": summarize(op_wall_times),
        "probe_s": summarize([s for _, s in run.probe.samples]),
        "timings": {name: summarize(v) for name, v in timings.items()},
    }
    if tracer:
        overhead = (statistics.median(op_times[True])
                    - statistics.median(op_times[False]))
        values = {**layer_metrics(tracer.spans, len(op_times[True])),
                  "trace.overhead_s": overhead}
        info["certificate_calls"] = certificate_calls(tracer.spans)
        print(f"layers for {args.workload}, per traced op "
              f"({len(op_times[True])} ops):")
        print(layer_table(tracer.spans, len(op_times[True])))
        tracer.dump(WORK / f"{args.workload}-seed{args.seed}.spans.json")
    else:
        values = {
            "op_ref_s": statistics.median(op_times[False]),
            # no samples only when every decompose op's interpreter died
            "setup_s": statistics.median(run.setup_ref_samples or [0.0]),
            "peak_rss_mb": peak_kb / 1024,
        }
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": units[name]}
                    for name, v in values.items()},
    }
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=2) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
