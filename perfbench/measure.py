"""Timing helpers: speed calibration, child processes, order statistics.

The CPU speed seen by the benchmark is not steady. On a shared 2-core
sandbox the same request took 4.3 ms to 9.7 ms within one minute, in phases
that last from one to about 25 seconds. Process CPU time moved with the wall
time, and steal time stayed at zero. A 20 s run can sit inside one slow
phase, so raw medians differ by up to 30% from run to run. ``Speed`` runs a
fixed pure-Python loop (exact rational arithmetic, tuples, dicts, str)
between blocks of requests. It scales each block's wall times to the speed
at which that loop takes ``REFERENCE_S``. The loop uses the standard library
only, so no change to ``amplecheck`` can move it.
"""

from __future__ import annotations

import math
import subprocess
import sys
from fractions import Fraction
from time import perf_counter


def _calibration_loop() -> None:
    acc = Fraction(0)
    seen = {}
    for i in range(1, 150):
        q = Fraction(i, 7) * Fraction(3, i + 2) + Fraction(i * i, 11)
        acc += q / (i + 1)
        seen[(i, i % 7)] = str(q.numerator)


class Speed:
    """Scale factors from wall time to the reference speed."""

    REFERENCE_S = 0.001

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = self._sample()

    def _sample(self) -> float:
        """The loop's median time over three runs, which an interrupt in
        one run does not move."""
        times = []
        for _ in range(3):
            start = perf_counter()
            _calibration_loop()
            times.append(perf_counter() - start)
        elapsed = median(times)
        self.samples.append(elapsed)
        return elapsed

    def factor(self) -> float:
        """Close a block: reference time over the mean calibration time on
        either side of it."""
        now = self._sample()
        factor = self.REFERENCE_S / ((self._last + now) / 2)
        self._last = now
        return factor

    def restart(self) -> None:
        """Start the next block afresh, after work that is not measured."""
        self._last = self._sample()


class Blocks:
    """Requests grouped into blocks of about ``BLOCK_S`` of request time.

    A calibration sample closes each block, and every time in the block is
    scaled by the block's factor.
    """

    BLOCK_S = 0.1

    def __init__(self) -> None:
        self.speed = Speed()
        self.factors: list[float] = []
        self._open: list = []
        self._busy = 0.0

    def add(self, item, wall: float) -> bool:
        """Add one request; True when the block is full."""
        self._open.append(item)
        self._busy += wall
        return self._busy >= self.BLOCK_S

    def close(self) -> list[tuple]:
        """``(item, factor)`` for each request of the block just closed."""
        if not self._open:
            return []
        f = self.speed.factor()
        self.factors.append(f)
        closed = [(item, f) for item in self._open]
        self._open, self._busy = [], 0.0
        return closed


def spawn_cli(argv: tuple[str, ...], env: dict, deadline: float) -> tuple[int | None, bytes, float]:
    """Run the CLI in a child process; exit code None means the deadline passed.

    ``subprocess.run`` kills the child at the deadline, or when anything
    interrupts the wait, and waits for it in either case.
    """
    start = perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "amplecheck.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, timeout=deadline,
        )
        code, out = done.returncode, done.stdout
    except subprocess.TimeoutExpired as exc:
        code, out = None, exc.stdout or b""
    return code, out, perf_counter() - start


IMPORT_SNIPPET = "import time; t = time.perf_counter(); import amplecheck.cli; print(time.perf_counter() - t)"


def measure_setup(env: dict, repeats: int) -> dict[str, float]:
    """Fresh-interpreter set-up at reference speed, medians over ``repeats``.

    ``setup_s`` is the wall time of an interpreter that imports
    ``amplecheck.cli``; ``floor_ms`` the wall time of one that runs
    ``pass``; ``import_ms`` the import alone, timed inside the child.
    """
    def run(code: str) -> tuple[float, bytes]:
        start = perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
        return perf_counter() - start, done.stdout

    run("pass")
    run(IMPORT_SNIPPET)  # writes the bytecode cache; not timed
    speed = Speed()
    floor, setup, imports, raw = [], [], [], []
    for _ in range(repeats):
        floor_s = run("pass")[0]
        wall, out = run(IMPORT_SNIPPET)
        f = speed.factor()
        floor.append(floor_s * f)
        setup.append(wall * f)
        imports.append(float(out) * f)
        raw.append(wall)
    return {
        "setup_s": median(setup),
        "floor_ms": median(floor) * 1e3,
        "import_ms": median(imports) * 1e3,
        "raw_setup_s": median(raw),
    }


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]
