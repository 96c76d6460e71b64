"""Pin the decision counters the benchmark checks, per seed.

Usage (from the root of a checkout)::

    python3 perfbench/pin.py --workload sim_day_20k --seeds 0-31
    python3 perfbench/pin.py --workload paper_grid_1k --seeds 0-31

Runs the workload's units for each benchmark seed at full scale and
merges their counters into ``perfbench/pinned.json``: ``sim_day_20k``
keys them by seed, ``paper_grid_1k`` by the config seed of each unit a
run of ``run_seconds`` makes.  Regenerate only for a change
meant to alter placement decisions, and say so where the change is
described: the benchmark fails any run whose counters leave the pins.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List

import common
from common import use_checkout_sources


def _seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def pin_sim_day(seeds: List[int]) -> Dict[str, Any]:
    import checks
    import sim_day
    from repro.cluster import ec2
    from repro.experiments.sweep import sweep_table, sweep_workload

    scale = sim_day.FULL
    table = sweep_table()
    pins = {}
    for seed in seeds:
        datacenter = ec2.build_ec2_soa_datacenter({"M3": scale.pms})
        vms = sweep_workload(scale.vms, seed=seed)
        _, result = sim_day.simulate(table, datacenter, vms, scale, [])
        pins[str(seed)] = {"PageRankVM": checks.sim_counters(result)}
        print(seed, pins[str(seed)], flush=True)
    return pins


def pin_paper_grid(seeds: List[int], seconds: float) -> Dict[str, Any]:
    """Pins per config seed: every unit a run of ``seconds`` makes."""
    import checks
    import paper_grid
    from repro.experiments.runner import run_experiment

    scale = paper_grid.FULL
    pins = {}
    for seed in seeds:
        for unit in range(scale.units(seconds)):
            config = paper_grid.make_config(
                paper_grid.config_seed(seed, unit), scale
            )
            results = run_experiment(config, workers=1)
            if results.failed_cells:
                raise RuntimeError(f"seed {config.seed}: {results.failed_cells}")
            pins[str(config.seed)] = {
                policy: checks.sim_counters(runs[0])
                for policy, runs in results.runs.items()
            }
            print(config.seed, pins[str(config.seed)], flush=True)
    return pins


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sim_day_20k", "paper_grid_1k"))
    parser.add_argument("--seeds", required=True, help="e.g. 0-31 or 1,5,9")
    args = parser.parse_args()
    use_checkout_sources()
    import checks

    seeds = _seeds(args.seeds)
    if args.workload == "sim_day_20k":
        pins = pin_sim_day(seeds)
    else:
        spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
        pins = pin_paper_grid(seeds, spec["run_seconds"])
    stored: Dict[str, Any] = {}
    if checks.PINNED_PATH.is_file():
        stored = json.loads(checks.PINNED_PATH.read_text())
    stored.setdefault(args.workload, {}).update(pins)
    checks.PINNED_PATH.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
