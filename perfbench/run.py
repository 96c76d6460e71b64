"""End-to-end benchmark of the PageRankVM reproduction: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 15 --trace 0

Workloads: ``serve_mixed`` (online placement service), ``sim_day_20k``
(a simulated day at 20k PMs), ``paper_grid_1k`` (the paper's grid cell).
Every input is generated from ``--seed``; outputs are checked, and the
process exits 1 when a check fails.  With ``--trace 0`` the last line
of stdout carries the end-to-end metrics; with ``--trace 1`` the run is
made twice at half of ``--seconds``, untraced then traced, and the last
line carries the per-layer metrics plus the tracing overhead (traced
minus untraced).
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from common import (
    OUT_DIR,
    MissingProgram,
    host_fingerprint,
    host_probe_s,
    use_checkout_sources,
)

#: (metric, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_s", "s"),
    ("p50_ms", "ms"),
    ("p75_ms", "ms"),
)

#: Units of the workload-specific figures printed before the result line.
DETAIL_UNITS = {
    "serve_place_p50_ms": "ms",
    "serve_place_p90_ms": "ms",
    "serve_place_p95_ms": "ms",
    "serve_place_p99_ms": "ms",
    "serve_migrate_p50_ms": "ms",
    "serve_migrate_p99_ms": "ms",
    "serve_sat_rps": "1/s",
    "serve.gen.late_ms_p99": "ms",
    "from_send_place_p50_ms": "ms",
    "from_send_place_p99_ms": "ms",
    "tick_p99_ms": "ms",
    "sim_day_s": "s",
    "grid_cell_s": "s",
    "failed_ratio": "ratio",
}

WORKLOADS = ("serve_mixed", "sim_day_20k", "paper_grid_1k")


def _module(workload: str):
    import paper_grid
    import serve_mixed
    import sim_day

    return {
        "serve_mixed": serve_mixed,
        "sim_day_20k": sim_day,
        "paper_grid_1k": paper_grid,
    }[workload]


def _decisions(workload: str, detail: Dict[str, Any]) -> Any:
    """What must not change between the untraced and the traced run."""
    if workload == "serve_mixed":
        if detail["outcomes"].get("shed", 0):
            return None  # a different admitted set; each run was replayed
        return detail["decision_digest"]
    return detail["counters"]


def _print_figures(workload: str, metrics: Dict[str, float],
                   detail: Dict[str, Any]) -> None:
    for name, unit in END_TO_END:
        print(f"{workload} {name:<24} {metrics[name]:>14.6f} {unit}")
    for name, unit in DETAIL_UNITS.items():
        if name in detail:
            print(f"{workload} {name:<24} {detail[name]:>14.6f} {unit}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> Dict[str, Any]:
    """Run one workload; returns the result object plus its detail."""
    import layers
    from tracer import Tracer

    module = _module(workload)
    size = module.TOY if scale == "toy" else module.FULL
    if trace:
        # Two passes, untraced then traced, at half of --seconds each.
        # The least units a run makes steady the end-to-end metrics; the
        # per-layer ones have no bound, so a pass may make a single unit.
        seconds /= 2
        if "min_units" in size.__dataclass_fields__:
            size = dataclasses.replace(size, min_units=1)
    probe_before = host_probe_s()
    began = time.perf_counter()
    base = module.run(seed, seconds, size)
    errors: List[str] = list(base.errors)
    detail: Dict[str, Any] = {"untraced": base.detail}
    if not trace:
        errors += base.late_checks()
        values = dict(base.metrics)
        units = dict(END_TO_END)
    else:
        # Nothing of the untraced pass may stay alive into the traced
        # one, or it would count as tracing overhead in the peak RSS.
        base.layer_context.clear()
        gc.collect()
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced = module.run(seed, seconds, size, tracer=tracer)
        finally:
            tracer.uninstall()
        errors += traced.errors + base.late_checks() + traced.late_checks()
        expected = _decisions(workload, base.detail)
        observed = _decisions(workload, traced.detail)
        if expected is not None and observed is not None and expected != observed:
            errors.append("traced run decided differently from the untraced run")
        values = layers.summarize(tracer, traced.layer_context)
        for name, _ in END_TO_END:
            values[f"trace.overhead.{name}"] = (
                traced.metrics[name] - base.metrics[name]
            )
        units = dict(layers.PER_LAYER)
        windows = traced.layer_context.get("windows", [])
        detail["traced"] = traced.detail
        detail["traced_end_to_end"] = traced.metrics
        detail["gc_gen2_pauses"] = layers.gc_record(tracer, windows)
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(OUT_DIR.parent.parent))
    detail.update({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "host": dict(host_fingerprint(), probe_s=[probe_before, host_probe_s()]),
        "end_to_end": base.metrics,
        "wall_s": time.perf_counter() - began,
        "errors": errors,
    })
    result = {
        "correct": not errors,
        # Operations of the measured (untraced) run; the traced run's
        # sheds, if tracing overhead causes any, show in its layers.
        "attempted": int(base.attempted),
        "failed": int(base.failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    return {"result": result, "detail": detail}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout_sources()
    except MissingProgram as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    out = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    result, detail = out["result"], out["detail"]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = OUT_DIR / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    record.write_text(json.dumps({"result": result, "detail": detail},
                                 indent=1, default=str))
    _print_figures(args.workload, detail["end_to_end"], detail["untraced"])
    for error in detail["errors"]:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({"host": detail["host"], "workload": args.workload,
                      "seed": args.seed, "record": str(record.name)}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
