"""Workload ``sim_day_20k``: one simulated 24 h day at 20k PMs.

20,000 EC2 M3 PMs on the struct-of-arrays substrate take 50,000 VMs
drawn by :func:`repro.experiments.sweep.sweep_workload` (calm traces),
placed by PageRankVM and monitored every 300 s for a day through
:class:`repro.cluster.simulation.CloudSimulation` — the offline batch
path.  Each unit builds its inputs cold (score table, fleet, VMs) and
then runs one day, so every unit does the same work.

The unit's wall time (allocation through the last tick) is the work
metric; the latency metrics are over the day's monitor ticks, each timed
at the tick boundary: a percentile per day, then the mean over days.

Checks: the decision counters equal the values pinned for the seed in
``pinned.json`` (when pinned), the units of a run (when it has several)
decide identically, and the final fleet passes the C1-C11 audit with
consistent accounting.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Any, Dict, List

import checks
from common import (
    WorkloadRun,
    median,
    mean_of,
    peak_rss_mb,
    percentile,
    timed_ticks,
)

NAME = "sim_day_20k"
MONITOR_INTERVAL_S = 300.0


@dataclass(frozen=True)
class Scale:
    """Sizes of one sim_day run."""

    pms: int
    vms: int
    duration_s: float
    unit_s: float            # a day's wall time on the reference host
    min_units: int
    setups: int              # timed set-ups (extra ones before the days)
    pinned: bool             # hold counters to pinned.json

    def units(self, seconds: float) -> int:
        """Days per run: as many as fill --seconds on the reference host.

        The count follows --seconds, not how fast this host runs, so
        every run of a workload does the same work.
        """
        return max(self.min_units, round(seconds / self.unit_s))


# unit_s: the day took 7.9-13.2 s (median 10 s) over ten seeds on a
# 2-vCPU Xeon VM.  Two days are the least a run makes: over ten seeds,
# one day's tick p50 and p75 spread 0.31 and 0.35 in one set, because a
# slow spell of the host that covers one day moves the whole figure.
FULL = Scale(pms=20_000, vms=50_000, duration_s=86_400.0, unit_s=10.0,
             min_units=2, setups=3, pinned=True)
TOY = Scale(pms=120, vms=300, duration_s=7_200.0, unit_s=1.0, min_units=2,
            setups=3, pinned=False)


def setup(seed: int, scale: Scale):
    """Cold inputs of one unit: (table, datacenter, vms)."""
    from repro.cluster import ec2
    from repro.experiments.sweep import sweep_table, sweep_workload

    table = sweep_table()
    datacenter = ec2.build_ec2_soa_datacenter({"M3": scale.pms})
    vms = sweep_workload(scale.vms, seed=seed)
    return table, datacenter, vms


def simulate(table, datacenter, vms, scale: Scale,
             ticks: List[List[float]]):
    """Run the day; returns (policy, result).

    The day's tick wall times are appended to ``ticks`` as one list.
    """
    from repro.baselines import MinimumMigrationTimeSelector
    from repro.cluster.simulation import CloudSimulation, SimulationConfig
    from repro.core.placement import PageRankVMPolicy

    policy = PageRankVMPolicy({table.shape: table})
    simulation = CloudSimulation(
        datacenter,
        policy,
        MinimumMigrationTimeSelector(),
        SimulationConfig(
            duration_s=scale.duration_s,
            monitor_interval_s=MONITOR_INTERVAL_S,
        ),
    )
    with timed_ticks(ticks):
        return policy, simulation.run(vms)


def run(seed: int, seconds: float, scale: Scale = FULL,
        tracer=None) -> WorkloadRun:
    """Repeat (cold set-up, one day) for ``scale.units(seconds)`` days."""
    from repro.analysis.invariants import audit_simulation

    setups: List[float] = []
    days: List[float] = []
    ticks: List[List[float]] = []
    units: List[Dict[str, Dict[str, Any]]] = []
    windows = []
    unplaced = 0
    units_n = scale.units(seconds)
    for _ in range(scale.setups - units_n):  # set-up samples only
        began = time.perf_counter()
        setup(seed, scale)
        setups.append(time.perf_counter() - began)
    for _ in range(units_n):
        # Each unit starts from a clean heap, as a fresh process would.
        datacenter = policy = result = None
        gc.collect()
        began = time.perf_counter()
        table, datacenter, vms = setup(seed, scale)
        setups.append(time.perf_counter() - began)
        began = time.perf_counter()
        policy, result = simulate(table, datacenter, vms, scale, ticks)
        ended = time.perf_counter()
        days.append(ended - began)
        windows.append((began, ended))
        units.append({"PageRankVM": checks.sim_counters(result)})
        unplaced += result.unplaced_vms
        del table, vms
    if tracer is not None:
        tracer.uninstall()
    rss = peak_rss_mb()

    pinned = checks.load_pinned(NAME).get(str(seed)) if scale.pinned else None
    errors = checks.first_errors([
        checks.check_repeats(units),
        checks.check_pinned(units[0], pinned),
        checks.check_audit(audit_simulation(datacenter, result), "sim fleet"),
    ])
    attempted = scale.vms * len(days)
    detail = {
        "sim_day_s": median(days),
        "days_s": days,
        "setups_s": setups,
        "tick_samples": sum(len(day) for day in ticks),
        "tick_p99_ms": percentile([t for day in ticks for t in day], 99) * 1e3,
        "counters": units[0]["PageRankVM"],
        "pinned": pinned is not None,
        "failed_ratio": unplaced / attempted,
        "fleet_pms": scale.pms,
        "vms": scale.vms,
    }
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "work_s": median(days),
        "p50_ms": mean_of(ticks, 50) * 1e3,
        "p75_ms": mean_of(ticks, 75) * 1e3,
    }
    context = {
        "setups": len(setups),
        "runs": len(days),
        "cache_info": policy.cache_info(),
        "used_classes": len(datacenter.indexed_machines().used_classes()),
        "migrations": result.migrations,
        "windows": windows,
    }
    return WorkloadRun(
        metrics=metrics, attempted=attempted, failed=unplaced,
        detail=detail, errors=errors, layer_context=context,
    )
