"""Machine-speed probe for the benchmark's op times.

On a shared host the whole machine can run about 1.6x faster or slower
for tens of seconds at a time.  A single certify op lasts about as long
as one such spell, so its wall time says as much about the host as about
the program.  The parent therefore keeps measuring the machine while it
waits for an op's child process: every INTERVAL_S it runs a small fixed
kernel (a sparse product of two integer polynomials held as dicts of
exponent tuples, the kind of work shapeforge does) and records how long
it took.  The kernel is the benchmark's own code, so a change to
shapeforge does not move it.

An op's reference time is its wall time times REF_S divided by the mean
kernel time over the op's window (at least MIN_WINDOW_S wide): the op's
length in kernel runs, expressed in seconds of a machine on which the
kernel takes REF_S.
Timestamps are time.monotonic(), which child processes share.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import time

INTERVAL_S = 0.1
# Shorter windows are widened to this, centred on them: a spell of the
# host lasts far longer, and a sub-second op would see only a few samples.
MIN_WINDOW_S = 2.0
# The kernel's time on a 2-vCPU Xeon VM while one op runs beside it.
REF_S = 0.010


def _poly(rng: random.Random, terms: int) -> dict[tuple, int]:
    out: dict[tuple, int] = {}
    while len(out) < terms:
        key = tuple(rng.randrange(3) for _ in range(9))
        out[key] = rng.choice((-3, -2, -1, 1, 2, 3))
    return out


def _mul(a: dict[tuple, int], b: dict[tuple, int]) -> dict[tuple, int]:
    out: dict[tuple, int] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            new = out.get(key, 0) + ca * cb
            if new:
                out[key] = new
            else:
                del out[key]
    return out


class Probe:
    """Kernel timings taken while child processes run."""

    def __init__(self):
        rng = random.Random(0)
        self._a, self._b = _poly(rng, 40), _poly(rng, 40)
        self.samples: list[tuple[float, float]] = []   # (midpoint, seconds)

    def sample(self):
        t0 = time.monotonic()
        _mul(self._a, self._b)
        _mul(self._b, self._a)
        t1 = time.monotonic()
        self.samples.append(((t0 + t1) / 2, t1 - t0))

    def wait(self, proc: subprocess.Popen, timeout: float):
        """Sample until proc exits; returns its (stdout, stderr).

        On timeout the process is killed and reaped, and
        subprocess.TimeoutExpired is raised.
        """
        deadline = time.monotonic() + timeout
        while True:
            self.sample()
            try:
                return proc.communicate(timeout=INTERVAL_S)
            except subprocess.TimeoutExpired:
                if time.monotonic() > deadline:
                    proc.kill()
                    proc.communicate()
                    raise

    def ref_seconds(self, seconds: float, start: float, end: float) -> float:
        """`seconds` of wall time in [start, end], at reference speed."""
        mid = (start + end) / 2
        half = max(end - start, MIN_WINDOW_S) / 2
        inside = [s for t, s in self.samples if abs(t - mid) <= half]
        if not inside:
            inside = [min(self.samples, key=lambda ts: abs(ts[0] - mid))[1]]
        return seconds * REF_S / statistics.mean(inside)
