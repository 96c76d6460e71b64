"""Per-layer metrics: which public calls are wrapped, and what they yield.

:func:`install` wraps the calls at each layer boundary with the
:class:`~tracer.Tracer`; :func:`summarize` turns the recorded spans into
the per-layer metrics named in ``BENCHMARK.json``.  Every metric is
emitted on every workload; a layer a workload never enters reports 0.
Times are self times (children and collector pauses removed) unless the
name says otherwise: ``experiments.runner.cell_s.<policy>`` is a whole
cell, inclusive.  Set-up layers are per set-up; simulator layers are
per simulation run or per tick as named.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from common import percentile
from tracer import Tracer

GRID_POLICIES = ("PageRankVM", "CompVM", "FFDSum", "FF")

#: (metric, unit) for every per-layer metric, in BENCHMARK.json order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("core.graph.build_s", "s"),
    ("core.graph.nodes", "count"),
    ("core.kernel_sweep.rank_s", "s"),
    ("core.score_table.build_s", "s"),
    ("core.soa.fleet_build_s", "s"),
    ("cluster.datacenter.fleet_build_s", "s"),
    ("serve.gen.late_ms_p99", "ms"),
    ("serve.app.us_per_req", "us"),
    ("serve.admission.wait_ms_p50", "ms"),
    ("serve.admission.wait_ms_p99", "ms"),
    ("serve.admission.batch_size_mean", "count"),
    ("serve.admission.shed_429", "count"),
    ("serve.service.record_us_per_req", "us"),
    ("core.policy.warm_us_per_req", "us"),
    ("core.policy.decide_us_per_place", "us"),
    ("core.policy.place_decisions", "count"),
    ("core.policy.decide_us_per_migrate", "us"),
    ("core.policy.migrate_decisions", "count"),
    ("core.policy.candidate_hit_ratio", "ratio"),
    ("core.policy.candidate_lookups", "count"),
    ("core.soa.apply_us_per_vm", "us"),
    ("core.soa.migrate_us_per_op", "us"),
    ("core.soa.monitor_ms_per_tick", "ms"),
    ("core.soa.used_classes", "count"),
    ("cluster.simulation.allocate_s", "s"),
    ("cluster.simulation.ticks_s", "s"),
    ("cluster.simulation.relieve_s", "s"),
    ("cluster.simulation.migrations", "count"),
    ("cluster.energy.ms_per_tick", "ms"),
    ("cluster.monitor.snapshot_ms_per_tick", "ms"),
    ("cluster.datacenter.apply_us", "us"),
    ("cluster.datacenter.migrate_us", "us"),
    ("core.migration.victim_ms", "ms"),
    ("baselines.victim_us", "us"),
    ("core.score_table.snap_rows", "count"),
    ("baselines.decide_us_per_call", "us"),
) + tuple(
    (f"experiments.runner.cell_s.{policy}", "s") for policy in GRID_POLICIES
) + (
    ("python.gc.gen2_collections", "count"),
    ("python.gc.gen2_pause_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead.setup_s", "s"),
    ("trace.overhead.peak_rss_mb", "MB"),
    ("trace.overhead.work_s", "s"),
    ("trace.overhead.p50_ms", "ms"),
    ("trace.overhead.p75_ms", "ms"),
)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the three workloads cross."""
    from repro.baselines import (
        CompVMPolicy,
        FFDSumPolicy,
        FirstFitPolicy,
        MinimumMigrationTimeSelector,
    )
    from repro.cluster import ec2
    from repro.cluster.datacenter import Datacenter
    from repro.cluster.energy import EnergyMeter
    from repro.cluster.monitor import UtilizationMonitor
    from repro.cluster.simulation import CloudSimulation
    from repro.cluster.slo import SLOTracker
    from repro.core import score_table
    from repro.core.migration import PageRankMigrationSelector
    from repro.core.placement import PageRankVMPolicy
    from repro.core.soa.datacenter import SoADatacenter
    from repro.experiments import runner, sweep, tables
    from repro.serve import fleet
    from repro.serve.admission import AdmissionQueue
    from repro.serve.app import PlacementApp
    from repro.serve.service import PlacementService

    def remember_policy(policy, *_):
        tracer.seen["policy"] = policy

    wrap = tracer.wrap
    # Set-up: enumerate -> rank -> table, then the fleet.
    wrap(score_table, "load_or_build_profile_graph", "core.graph.build",
         result=lambda graph: graph.n_nodes)
    wrap(score_table, "sweep_profile_pagerank", "core.kernel_sweep.rank")
    wrap(sweep, "build_score_table", "core.score_table.build")
    wrap(tables, "build_score_table", "core.score_table.build")
    wrap(ec2, "build_ec2_soa_datacenter", "core.soa.fleet_build")
    wrap(fleet, "build_ec2_soa_datacenter", "core.soa.fleet_build")
    wrap(runner, "build_ec2_datacenter", "cluster.datacenter.fleet_build")
    # Serving: app -> admission -> batch (warm) -> one request -> decide -> write.
    wrap(PlacementApp, "__call__", "serve.app")
    wrap(AdmissionQueue, "submit", "serve.admission.submit",
         rid=lambda queue, request: request.request_id)
    wrap(PlacementService, "serve_batch", "serve.service.batch",
         tag=lambda service, requests: len(requests), root=True)
    wrap(PlacementService, "serve_one", "serve.service.serve_one",
         rid=lambda service, request: request.request_id,
         tag=lambda service, request: request.op)
    wrap(PlacementService, "shed_queue_full", "serve.service.shed_429")
    wrap(PageRankVMPolicy, "warm_batch", "core.policy.warm")
    wrap(PageRankVMPolicy, "select", "core.policy.decide", tag=remember_policy)
    for baseline in (CompVMPolicy, FFDSumPolicy, FirstFitPolicy):
        wrap(baseline, "select", "baselines.decide")
    wrap(SoADatacenter, "apply", "core.soa.apply")
    wrap(SoADatacenter, "migrate", "core.soa.migrate")
    wrap(SoADatacenter, "monitor_arrays", "core.soa.monitor")
    wrap(Datacenter, "apply", "cluster.datacenter.apply")
    wrap(Datacenter, "migrate", "cluster.datacenter.migrate")
    # Simulation: allocate -> tick (monitor, energy/SLO, relieve).
    wrap(CloudSimulation, "run", "cluster.simulation.run")
    wrap(CloudSimulation, "allocate_initial", "cluster.simulation.allocate")
    wrap(CloudSimulation, "_on_tick", "cluster.simulation.tick")
    wrap(CloudSimulation, "_relieve", "cluster.simulation.relieve")
    wrap(EnergyMeter, "accumulate_many", "cluster.energy")
    wrap(SLOTracker, "record_many", "cluster.energy")
    wrap(UtilizationMonitor, "snapshot_frame", "cluster.monitor.snapshot")
    wrap(PageRankMigrationSelector, "select_victim", "core.migration.victim")
    wrap(MinimumMigrationTimeSelector, "select_victim", "baselines.victim")
    wrap(score_table, "_pairwise_l1", "core.score_table.snap",
         tag=lambda queries, matrix: len(queries))
    wrap(runner, "run_single", "experiments.runner.cell",
         tag=lambda config, policy, *_: policy)
    tracer.install_gc()


def _in_windows(start: float, windows: List[Tuple[float, float]]) -> bool:
    return any(begin <= start <= end for begin, end in windows)


def summarize(tracer: Tracer, context: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of one traced run (0 where a layer never ran)."""
    self_s = tracer.self_times()
    groups = tracer.by_name()
    tags = tracer.tags

    def members(name: str) -> Sequence[int]:
        return groups.get(name, ())

    def total(name: str) -> float:
        return float(self_s[groups[name]].sum()) if name in groups else 0.0

    def count(name: str) -> int:
        return len(members(name))

    def mean(name: str, scale: float) -> float:
        n = count(name)
        return total(name) / n * scale if n else 0.0

    def per(value: float, n: float) -> float:
        return value / n if n else 0.0

    # Decisions split by what asked for them.
    place, migrate = [], []
    for index in members("core.policy.decide"):
        parent = tracer.parent[index]
        kind = tracer.name_of(parent) if parent >= 0 else None
        if kind == "serve.service.serve_one":
            kind = tags.get(parent)
        if kind in ("place", "cluster.simulation.allocate"):
            place.append(self_s[index])
        elif kind in ("migrate", "cluster.simulation.relieve"):
            migrate.append(self_s[index])

    # Admission wait: submit -> start of the batch that served the
    # request, over the open-loop requests (closed-loop ones queue behind
    # 31 others by construction).
    open_loop = context.get("open_loop_rids", ())
    submitted = {
        tracer.rid[i]: tracer.start[i] for i in members("serve.admission.submit")
        if tracer.rid[i] in open_loop
    }
    waits = []
    for index in members("serve.service.serve_one"):
        batch, rid = tracer.parent[index], tracer.rid[index]
        if batch >= 0 and rid in submitted:
            waits.append((tracer.start[batch] - submitted[rid]) * 1e3)
    batches = [tags[i] for i in members("serve.service.batch")]

    info = context.get("cache_info")
    if info is None and "policy" in tracer.seen:
        info = tracer.seen["policy"].cache_info()
    hits, misses = (info.hits, info.misses) if info is not None else (0, 0)

    windows = context.get("windows", [])
    gen2 = [(end - start) for generation, start, end, _ in tracer.gc_events
            if generation == 2 and _in_windows(start, windows)]
    setups = context.get("setups", 0)
    runs = context.get("runs", 0)
    ticks = count("cluster.simulation.tick")
    served = count("serve.service.serve_one")
    nodes = sum(tags.get(i, 0) for i in members("core.graph.build"))
    snap_rows = sum(tags.get(i, 0) for i in members("core.score_table.snap"))

    metrics = {
        "core.graph.build_s": per(total("core.graph.build"), setups),
        "core.graph.nodes": per(nodes, setups),
        "core.kernel_sweep.rank_s": per(total("core.kernel_sweep.rank"), setups),
        "core.score_table.build_s": per(total("core.score_table.build"), setups),
        "core.soa.fleet_build_s": per(total("core.soa.fleet_build"), setups),
        "cluster.datacenter.fleet_build_s": per(
            total("cluster.datacenter.fleet_build"), runs
        ),
        "serve.gen.late_ms_p99": context.get("late_ms_p99", 0.0),
        "serve.app.us_per_req": mean("serve.app", 1e6),
        "serve.admission.wait_ms_p50": percentile(waits, 50),
        "serve.admission.wait_ms_p99": percentile(waits, 99),
        "serve.admission.batch_size_mean": per(sum(batches), len(batches)),
        "serve.admission.shed_429": count("serve.service.shed_429"),
        "serve.service.record_us_per_req": mean("serve.service.serve_one", 1e6),
        "core.policy.warm_us_per_req": per(total("core.policy.warm"), served) * 1e6,
        "core.policy.decide_us_per_place": per(sum(place), len(place)) * 1e6,
        "core.policy.place_decisions": len(place),
        "core.policy.decide_us_per_migrate": per(sum(migrate), len(migrate)) * 1e6,
        "core.policy.migrate_decisions": len(migrate),
        "core.policy.candidate_hit_ratio": per(hits, hits + misses),
        "core.policy.candidate_lookups": hits + misses,
        "core.soa.apply_us_per_vm": mean("core.soa.apply", 1e6),
        "core.soa.migrate_us_per_op": mean("core.soa.migrate", 1e6),
        "core.soa.monitor_ms_per_tick": mean("core.soa.monitor", 1e3),
        "core.soa.used_classes": context.get("used_classes", 0),
        "cluster.simulation.allocate_s": per(total("cluster.simulation.allocate"), runs),
        "cluster.simulation.ticks_s": per(total("cluster.simulation.tick"), runs),
        "cluster.simulation.relieve_s": per(total("cluster.simulation.relieve"), runs),
        "cluster.simulation.migrations": context.get("migrations", 0),
        "cluster.energy.ms_per_tick": per(total("cluster.energy"), ticks) * 1e3,
        "cluster.monitor.snapshot_ms_per_tick": per(
            total("cluster.monitor.snapshot"), ticks
        ) * 1e3,
        "cluster.datacenter.apply_us": mean("cluster.datacenter.apply", 1e6),
        "cluster.datacenter.migrate_us": mean("cluster.datacenter.migrate", 1e6),
        "core.migration.victim_ms": mean("core.migration.victim", 1e3),
        "baselines.victim_us": mean("baselines.victim", 1e6),
        "core.score_table.snap_rows": per(snap_rows, context.get("cells", 1)),
        "baselines.decide_us_per_call": mean("baselines.decide", 1e6),
        "python.gc.gen2_collections": len(gen2),
        "python.gc.gen2_pause_ms": sum(gen2) * 1e3,
        "trace.spans": len(tracer),
    }
    cells = context.get("cells", 0)
    by_policy: Dict[str, List[float]] = {}
    for index in members("experiments.runner.cell"):
        by_policy.setdefault(tags[index], []).append(
            tracer.end[index] - tracer.start[index]
        )
    for policy in GRID_POLICIES:
        metrics[f"experiments.runner.cell_s.{policy}"] = per(
            sum(by_policy.get(policy, ())), cells
        )
    return metrics


def gc_record(tracer: Tracer, windows: List[Tuple[float, float]]) -> List[Dict[str, float]]:
    """Every gen2 pause inside the timed windows: offset and length."""
    if not windows:
        return []
    origin = windows[0][0]
    return [
        {"at_s": start - origin, "pause_ms": (end - start) * 1e3}
        for generation, start, end, _ in tracer.gc_events
        if generation == 2 and _in_windows(start, windows)
    ]
