"""The paper grid decides identically on the columnar and object fleets.

``run_single`` builds every cell's fleet with
:func:`repro.cluster.ec2.build_ec2_datacenter` (struct-of-arrays); the
object builder is the reference.  Every field of every
:class:`~repro.cluster.simulation.SimulationResult` — decision counters,
energy, SLO and the fault-resilience figures — must be equal across the
two, for all four paper policies, with and without injected faults, and
with the C1-C11 audit on in every cell.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster.ec2 import build_ec2_object_datacenter
from repro.experiments import runner
from repro.experiments.config import DEFAULT_POLICIES, ExperimentConfig
from repro.faults.spec import parse_fault_spec

CONFIG = ExperimentConfig(
    n_vms=300,
    datacenter=(("M3", 240), ("C3", 60)),
    policies=DEFAULT_POLICIES,
    repetitions=2,
    seed=7,
)

FAULTS = "pm-crash=2,pm-downtime=600,mig-fail=0.1,vm-flap=3"


def _grid(faults):
    results = runner.run_experiment(CONFIG, audit=True, faults=faults)
    assert not results.failed_cells
    return {
        (policy, rep): dataclasses.asdict(result)
        for policy, runs in results.runs.items()
        for rep, result in enumerate(runs)
    }


@pytest.mark.parametrize("faults", [None, FAULTS], ids=["plain", "faulted"])
def test_columnar_grid_matches_object_grid(monkeypatch, faults):
    spec = parse_fault_spec(faults) if faults else None
    columnar = _grid(spec)
    monkeypatch.setattr(
        runner, "build_ec2_datacenter", build_ec2_object_datacenter
    )
    reference = _grid(spec)
    assert len(columnar) == len(DEFAULT_POLICIES) * CONFIG.repetitions
    for cell, expected in reference.items():
        assert columnar[cell] == expected, cell
