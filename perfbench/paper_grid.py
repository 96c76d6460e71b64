"""Workload ``paper_grid_1k``: one repetition of the paper's grid cell.

``ExperimentConfig(n_vms=1000)`` with its defaults — 800 M3 and 200 C3
PMs on the object substrate, PlanetLab-style traces, and the paper's
four policies (PageRankVM, CompVM, FFDSum, FF) — run through
:func:`repro.experiments.runner.run_experiment` with ``workers=1``, one
repetition.  Set-up builds the M3 and C3 score tables cold into the
runner's table cache; the timed unit is the whole cell (every policy's
allocation and 24 h day).  Each unit starts from freshly built tables,
so the tables' snap memo is cold every time.

How much a 1,000-VM cell migrates depends on its draw, so a run's units
use different config seeds (``seed * 1000 + unit``) and the work metric
is their mean: it varies less from one benchmark seed to the next than
one draw would.

The latency metrics are over the simulator's monitor ticks, each timed
at the tick boundary: a percentile per policy run, then the mean over
the runs of every policy and cell.

Checks: per-policy decision counters equal the values pinned for the
config seed (when pinned), no cell fails,
no table is built inside the timed cell, and each policy's final fleet
passes the C1-C11 audit with consistent accounting.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

import checks
from common import (
    WorkloadRun,
    mean,
    median,
    mean_of,
    peak_rss_mb,
    percentile,
    timed_ticks,
)

NAME = "paper_grid_1k"
#: Config seed of unit ``k`` of a run with benchmark seed ``s``: s * 1000 + k.
SUBSEEDS = 1_000


@dataclass(frozen=True)
class Scale:
    """Sizes of one paper_grid run (None keeps the config default)."""

    n_vms: int
    datacenter: Optional[Tuple[Tuple[str, int], ...]]
    duration_s: Optional[float]
    unit_s: float            # a cell's wall time on the reference host
    min_units: int
    setups: int              # timed set-ups (extra ones before the cells)
    pinned: bool

    def units(self, seconds: float) -> int:
        """Cells per run: as many as fill --seconds on the reference host.

        The count follows --seconds, not how fast this host runs, so
        every run of a workload does the same work.
        """
        return max(self.min_units, round(seconds / self.unit_s))


# unit_s: a cell took 12.2-21.9 s (median 17.1 s) over ten seeds on a
# 2-vCPU Xeon VM.  Three cells are the least a run makes, because how
# much a draw migrates, and so its tick latency, varies from seed to
# seed: with two cells a run's tick p50 spread 0.22-0.24 over ten seeds
# (bound 0.25), with three 0.145.  At --seconds 15 a run's cells take
# about 55 s.
FULL = Scale(n_vms=1_000, datacenter=None, duration_s=None, unit_s=17.5,
             min_units=3, setups=4, pinned=True)
TOY = Scale(n_vms=40, datacenter=(("M3", 24), ("C3", 8)), duration_s=3_600.0,
            unit_s=1.0, min_units=2, setups=3, pinned=False)


def config_seed(seed: int, unit: int) -> int:
    """The ExperimentConfig seed of one unit of a run."""
    return seed * SUBSEEDS + unit


def make_config(seed: int, scale: Scale):
    """The grid cell's config: paper defaults, one repetition, ``seed``."""
    from repro.cluster.simulation import SimulationConfig
    from repro.experiments.config import ExperimentConfig

    overrides: Dict[str, Any] = {}
    if scale.datacenter is not None:
        overrides["datacenter"] = scale.datacenter
    if scale.duration_s is not None:
        overrides["sim"] = SimulationConfig(duration_s=scale.duration_s)
    return ExperimentConfig(
        n_vms=scale.n_vms, repetitions=1, seed=seed, **overrides
    )


def setup(config) -> None:
    """Build the cell's score tables cold into the runner's cache."""
    from repro.experiments.runner import make_policy_and_selector
    from repro.experiments.tables import clear_memory_cache

    clear_memory_cache()
    make_policy_and_selector("PageRankVM", config)


@contextmanager
def captured_datacenters(into: Dict[str, Any]) -> Iterator[None]:
    """Keep, per policy, the datacenter of the runner's last attempt.

    The runner retries a failing cell, and each attempt builds a new
    datacenter; the last one is the fleet of the recorded result.
    """
    from repro.experiments import runner

    build, run_single = runner.build_ec2_datacenter, runner.run_single
    current: List[str] = []

    def capture(counts):
        datacenter = build(counts)
        into[current[-1]] = datacenter
        return datacenter

    def run_policy(config, policy_name, *args, **kwargs):
        current.append(policy_name)
        return run_single(config, policy_name, *args, **kwargs)

    runner.build_ec2_datacenter, runner.run_single = capture, run_policy
    try:
        yield
    finally:
        runner.build_ec2_datacenter, runner.run_single = build, run_single


def run(seed: int, seconds: float, scale: Scale = FULL,
        tracer=None) -> WorkloadRun:
    """Repeat (cold tables, one cell) for ``scale.units(seconds)`` cells."""
    from repro.analysis.invariants import audit_simulation
    from repro.experiments.runner import run_experiment
    from repro.experiments.tables import build_counts

    setups: List[float] = []
    cells: List[float] = []
    ticks: List[List[float]] = []
    counters: Dict[str, Dict[str, Dict[str, Any]]] = {}
    windows = []
    errors: List[str] = []
    failed = 0
    pins = checks.load_pinned(NAME) if scale.pinned else {}
    units_n = scale.units(seconds)
    for _ in range(scale.setups - units_n):  # set-up samples only
        began = time.perf_counter()
        setup(make_config(config_seed(seed, 0), scale))
        setups.append(time.perf_counter() - began)
    for unit in range(units_n):
        config = make_config(config_seed(seed, unit), scale)
        datacenters: Dict[str, Any] = {}
        gc.collect()
        began = time.perf_counter()
        setup(config)
        setups.append(time.perf_counter() - began)
        built = build_counts()
        with captured_datacenters(datacenters), timed_ticks(ticks):
            began = time.perf_counter()
            results = run_experiment(config, workers=1)
            ended = time.perf_counter()
        cells.append(ended - began)
        windows.append((began, ended))
        if build_counts() != built:
            errors.append("a score table was built inside the timed cell")
        failed += len(results.failed_cells)
        errors += [
            f"cell {f.policy}/{f.repetition} failed: {f.message}"
            for f in results.failed_cells
        ]
        observed = {
            policy: checks.sim_counters(runs[0])
            for policy, runs in results.runs.items() if runs
        }
        counters[str(config.seed)] = observed
        errors += checks.check_pinned(observed, pins.get(str(config.seed)))
        for policy, runs in results.runs.items():
            if runs:
                errors += checks.check_audit(
                    audit_simulation(datacenters[policy], runs[0]),
                    f"seed {config.seed} {policy} fleet",
                )
        del datacenters, results
    if tracer is not None:
        tracer.uninstall()
    rss = peak_rss_mb()

    errors = checks.first_errors([errors])
    attempted = len(config.policies) * len(cells)
    detail = {
        "grid_cell_s": mean(cells),
        "cells_s": cells,
        "setups_s": setups,
        "tick_samples": sum(len(run) for run in ticks),
        "tick_p99_ms": percentile([t for run in ticks for t in run], 99) * 1e3,
        "counters": counters,
        "pinned": sorted(set(counters) & set(pins)),
        "failed_ratio": failed / attempted,
        "n_vms": scale.n_vms,
    }
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "work_s": mean(cells),
        "p50_ms": mean_of(ticks, 50) * 1e3,
        "p75_ms": mean_of(ticks, 75) * 1e3,
    }
    context = {
        "setups": len(setups),
        "runs": len(cells) * len(config.policies),
        "cells": len(cells),
        "migrations": sum(
            c["migrations"] for unit in counters.values() for c in unit.values()
        ) / max(1, len(cells) * len(config.policies)),
        "windows": windows,
    }
    return WorkloadRun(
        metrics=metrics, attempted=attempted, failed=failed,
        detail=detail, errors=errors, layer_context=context,
    )
