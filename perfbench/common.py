"""Shared plumbing: import path, host fingerprint, statistics, results."""

from __future__ import annotations

import os
import platform
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else.

    The benchmark builds nothing: the program is the pure-Python package
    under ``src``.  No on-disk table or graph cache is consulted, so
    every set-up is cold.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop("REPRO_TABLE_CACHE", None)
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise MissingProgram(f"repro imported from {origin}, not from {SRC}")


def host_fingerprint() -> Dict[str, Any]:
    """Who measured: results from unlike hosts are never compared."""
    import numpy

    try:
        import scipy

        scipy_version: Optional[str] = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
    }


def host_probe_s(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs now.

    Stamped on every record, before and after the run, so a figure from
    a slow spell of a shared host can be told apart from a regression.
    """
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - began)
    return median(times)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (0 for an empty sample)."""
    import numpy as np

    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    """Median (0 for an empty sample)."""
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0 for an empty sample)."""
    return sum(values) / len(values) if len(values) else 0.0


def median_of(groups: Sequence[Sequence[float]], q: float) -> float:
    """Median over groups of each group's ``q``-th percentile.

    Open-loop latency percentiles are taken per slice and the median
    across slices is reported, so a stall or a collector pause confined
    to one slice moves the figure little.
    """
    return median([percentile(group, q) for group in groups if len(group)])


def mean_of(groups: Sequence[Sequence[float]], q: float) -> float:
    """Mean over groups of each group's ``q``-th percentile.

    Tick latency is taken per simulation run and averaged: a grid cell
    runs four policies whose ticks cost different amounts, and a
    percentile of their pooled ticks would jump between those levels.
    """
    values = [percentile(group, q) for group in groups if len(group)]
    return mean(values)


@contextmanager
def timed_ticks(groups: List[List[float]]) -> Iterator[None]:
    """Time every simulator monitor tick, one list per simulation run.

    The tick is the simulator's unit of served work; timing it at its
    boundary costs two clock reads per tick.  Each simulation whose
    ticks are timed appends a new list to ``groups``.
    """
    from repro.cluster.simulation import CloudSimulation

    tick = CloudSimulation._on_tick
    current: List[Any] = [None]

    def timed(self, time_s: float, dt_s: float) -> None:
        began = time.perf_counter()
        tick(self, time_s, dt_s)
        elapsed = time.perf_counter() - began
        if current[0] is not self:
            current[0] = self
            groups.append([])
        groups[-1].append(elapsed)

    CloudSimulation._on_tick = timed
    try:
        yield
    finally:
        CloudSimulation._on_tick = tick


@dataclass
class WorkloadRun:
    """What one workload run measured and checked.

    ``metrics`` are the end-to-end metrics (name -> value, units live in
    ``BENCHMARK.json``); ``detail`` holds the workload's own named
    metrics and counters; ``errors`` lists failed output checks.
    ``late_checks`` runs the output checks that must wait until every
    measured pass has ended, because they build objects that would
    raise the process's peak resident set.
    """

    metrics: Dict[str, float]
    attempted: int
    failed: int
    detail: Dict[str, Any] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    layer_context: Dict[str, Any] = field(default_factory=dict)
    late_checks: Callable[[], List[str]] = list
