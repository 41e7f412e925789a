"""Shared plumbing of the benchmark workloads: statistics, speed-normalized
processor time, memory, scratch space and the result a run reports."""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: The checkout root (the parent of this package's directory).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Scratch space of the benchmark inside the checkout (ignored by git);
#: every run makes a fresh directory under it and removes it on exit.
SCRATCH_ROOT = os.path.join(ROOT, ".perfbench_state")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_quantile(count: int) -> float:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond
    it: p99 from 1000 samples up, p75 for the 46-kernel suite."""
    for q in (0.99, 0.95, 0.90, 0.75):
        if count * (1.0 - q) >= 10.0:
            return q
    return 0.50


def geomean(values: Sequence[float]) -> float:
    return math.exp(statistics.fmean(math.log(value) for value in values))


#: Iterations of the speed probe, and the processor seconds it takes on the
#: reference machine (a quiet 2-vCPU x86 VM); see :class:`Meter`.
PROBE_ITERATIONS = 50_000
REFERENCE_PROBE_S = 0.004


def probe_s() -> float:
    """Processor seconds one fixed pure-Python loop takes now (median of
    three), counted on this thread's CPU clock so that time the thread spends
    descheduled does not count."""
    samples = []
    for _ in range(3):
        start = time.thread_time()
        x = 0
        for i in range(PROBE_ITERATIONS):
            x = (x * 31 + i) & 0xFFFF
        samples.append(time.thread_time() - start)
    return statistics.median(samples)


class Meter:
    """User-mode CPU seconds of intervals of work, scaled to the speed of the
    reference machine.

    On a shared virtual machine the CPU's speed drifts by tens of percent
    within seconds and by a factor of two over minutes (measured on a 2-vCPU
    x86 VM, where raw timings spread 20-40% run to run while these scaled
    ones spread 2-6%).  So a short probe loop runs after every interval (the
    previous interval's probe serves as this one's "before"), and the
    interval's CPU seconds are multiplied by :data:`REFERENCE_PROBE_S` over
    the mean of the two probes.  The probe touches no program code, so the
    scale does not depend on the program under test; no other thread of the
    process may be busy while it runs.  Both sides are processor time, so
    time-slicing with other processes cancels out too.  User-mode CPU is the
    steadiest measure of the program's own work: wall time adds waits, and
    system time adds page faults and I/O, which vary with the host far more
    than computation does.
    """

    def __init__(self) -> None:
        self.before = probe_s()
        #: Scaled user-mode CPU seconds: summed, and per interval.
        self.user = 0.0
        self.users: List[float] = []
        #: System CPU and wall seconds as measured, summed; and the last wall.
        self.system = 0.0
        self.raw_wall = 0.0
        self.last_raw_wall = 0.0

    def __enter__(self) -> "Meter":
        self._times = os.times()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        wall = time.perf_counter() - self._start
        times = os.times()
        after = probe_s()
        scale = REFERENCE_PROBE_S / ((self.before + after) / 2.0)
        self.before = after
        user = (times.user - self._times.user) * scale
        self.user += user
        self.users.append(user)
        self.system += times.system - self._times.system
        self.raw_wall += wall
        self.last_raw_wall = wall


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class InvalidRun(Exception):
    """The run cannot be scored; not a failure of the program under test."""


class Scratch:
    """A fresh directory under :data:`SCRATCH_ROOT`, removed on exit."""

    def __enter__(self) -> str:
        os.makedirs(SCRATCH_ROOT, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=SCRATCH_ROOT)
        return self.path

    def __exit__(self, *exc_info: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_ROOT)  # only succeeds once no run uses it
        except OSError:
            pass


@dataclass
class Result:
    """What one workload run reports.

    ``metrics`` maps a name to ``(value, unit)``; ``report`` holds the
    human-readable lines printed before the final JSON line (every metric
    the run measured, including ones the gate does not compare).
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    report: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        self.line(name, value, unit, note)

    def line(self, name: str, value: float, unit: str, note: str = "") -> None:
        """A reported number that is not part of the JSON result."""
        text = f"{name:44s} {value:14.6g} {unit}"
        self.report.append(text + (f"   ({note})" if note else ""))

    def problem(self, message: str) -> None:
        self.problems.append(message)
