"""Quick self-test of the benchmark at (2,3) sizes.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced with `--size small`,
and checks that each result is correct and reports exactly the metrics
BENCHMARK.json names, each with its unit.  Then checks that the
benchmark refuses to run, printing no result, in a copy of the
benchmark that has no program beside it.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 170


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace),
           "--size", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def check_result(proc: subprocess.CompletedProcess,
                 units: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != units:
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        wrong = sorted(n for n in set(got) & set(units) if got[n] != units[n])
        problems.append(f"metrics missing {missing}, extra {extra}, "
                        f"wrong unit {wrong}")
    for name, m in metrics.items():
        if type(m.get("value")) not in (int, float):
            problems.append(f"{name} value {m.get('value')!r}")
    return problems


def check_bare(spec: dict) -> list[str]:
    """Without src/ beside it the benchmark must fail and print no result."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, "
                f"stdout {proc.stdout.strip()!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failed = False
    for workload in spec["workloads"]:
        for trace in (0, 1):
            tag = f"{workload['name']} --trace {trace}"
            problems = check_result(_run(ROOT, workload["name"], trace),
                                    units[trace])
            failed |= bool(problems)
            print(f"{'FAIL' if problems else 'ok'}  {tag}")
            for problem in problems:
                print(f"      {problem}")
    problems = check_bare(spec)
    failed |= bool(problems)
    print(f"{'FAIL' if problems else 'ok'}  refuses to run without src/")
    for problem in problems:
        print(f"      {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
