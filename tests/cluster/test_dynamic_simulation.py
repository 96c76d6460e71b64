"""Tests for the dynamic-workload simulation and underload consolidation."""

import pytest

from repro.baselines import FirstFitPolicy, MinimumMigrationTimeSelector
from repro.cluster.datacenter import Datacenter
from repro.cluster.machine import PhysicalMachine
from repro.cluster.simulation import (
    DynamicSimulation,
    SimulationConfig,
    WorkloadEvent,
)
from repro.cluster.vm import VirtualMachine
from repro.traces.base import ConstantTrace
from repro.util.validation import ValidationError


def make_sim(toy_shape, count=4, **config_kwargs):
    config_kwargs.setdefault("duration_s", 3600.0)
    config_kwargs.setdefault("monitor_interval_s", 300.0)
    datacenter = Datacenter(
        [PhysicalMachine(i, toy_shape, type_name="M3") for i in range(count)]
    )
    sim = DynamicSimulation(
        datacenter,
        FirstFitPolicy(),
        MinimumMigrationTimeSelector(),
        SimulationConfig(**config_kwargs),
    )
    return sim, datacenter


def event(vm_id, vm_type, arrival, departure=None, level=0.1):
    return WorkloadEvent(
        arrival_s=arrival,
        vm=VirtualMachine(vm_id, vm_type, ConstantTrace(level)),
        departure_s=departure,
    )


class TestWorkloadEvent:
    def test_departure_must_follow_arrival(self, vm2):
        with pytest.raises(ValidationError):
            event(0, vm2, arrival=100.0, departure=50.0)

    def test_negative_arrival_rejected(self, vm2):
        with pytest.raises(ValidationError):
            event(0, vm2, arrival=-1.0)


class TestDynamicRun:
    def test_arrivals_are_placed(self, toy_shape, vm2):
        sim, datacenter = make_sim(toy_shape)
        events = [event(i, vm2, arrival=10.0 * i) for i in range(5)]
        result = sim.run_events(events)
        assert result.rejected_arrivals == 0
        assert datacenter.n_vms == 5

    def test_departures_free_capacity(self, toy_shape, vm2):
        sim, datacenter = make_sim(toy_shape)
        events = [
            event(0, vm2, arrival=0.0, departure=600.0),
            event(1, vm2, arrival=0.0, departure=900.0),
        ]
        result = sim.run_events(events)
        assert result.completed_vms == 2
        assert datacenter.n_vms == 0
        assert datacenter.pms_used == 0

    def test_rejection_when_fleet_full(self, toy_shape, vm4):
        sim, _ = make_sim(toy_shape, count=1)
        # One toy PM holds four [1,1,1,1] VMs; the fifth arrival bounces.
        events = [event(i, vm4, arrival=float(i)) for i in range(5)]
        result = sim.run_events(events)
        assert result.rejected_arrivals == 1
        assert result.unplaced_vms == 1

    def test_capacity_freed_by_departure_is_reused(self, toy_shape, vm4):
        sim, datacenter = make_sim(toy_shape, count=1)
        events = [event(i, vm4, arrival=1.0, departure=500.0) for i in range(4)]
        events.append(event(9, vm4, arrival=1000.0))
        result = sim.run_events(events)
        assert result.rejected_arrivals == 0
        assert datacenter.n_vms == 1

    def test_arrivals_beyond_horizon_ignored(self, toy_shape, vm2):
        sim, datacenter = make_sim(toy_shape, duration_s=1000.0)
        events = [event(0, vm2, arrival=10.0), event(1, vm2, arrival=5000.0)]
        result = sim.run_events(events)
        assert datacenter.n_vms == 1
        assert result.n_vms == 2

    def test_peak_reflects_concurrency(self, toy_shape, vm4):
        sim, _ = make_sim(toy_shape, count=4)
        # Four concurrent VMs early, then all but one depart.
        events = [
            event(i, vm4, arrival=1.0, departure=600.0) for i in range(3)
        ] + [event(3, vm4, arrival=1.0)]
        result = sim.run_events(events)
        assert result.pms_used_peak >= 1
        assert result.pms_used_final == 1


class TestUnderloadConsolidation:
    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValidationError):
            SimulationConfig(underload_threshold=0.95)
        with pytest.raises(ValidationError):
            SimulationConfig(underload_threshold=0.0)

    def test_idle_pm_gets_drained(self, toy_shape, vm2):
        from repro.cluster.simulation import CloudSimulation

        datacenter = Datacenter(
            [PhysicalMachine(i, toy_shape, type_name="M3") for i in range(3)]
        )
        sim = CloudSimulation(
            datacenter,
            FirstFitPolicy(),
            MinimumMigrationTimeSelector(),
            SimulationConfig(
                duration_s=1200.0,
                monitor_interval_s=300.0,
                underload_threshold=0.5,
            ),
        )
        # Manually spread two quiet VMs over two PMs, bypassing FF.
        from repro.core.permutations import balanced_placement
        from repro.core.policy import PlacementDecision

        for pm_id in (0, 1):
            vm = VirtualMachine(pm_id, vm2, ConstantTrace(0.05))
            machine = datacenter.machine(pm_id)
            placement = balanced_placement(toy_shape, machine.usage, vm2)
            datacenter.apply(vm, PlacementDecision(pm_id=pm_id, placement=placement))

        assert datacenter.pms_used == 2
        result = sim.run([])
        assert result.consolidations >= 1
        assert datacenter.pms_used == 1

    def test_consolidation_counts_migrations(self, toy_shape, vm2):
        from repro.cluster.simulation import CloudSimulation
        from repro.core.permutations import balanced_placement
        from repro.core.policy import PlacementDecision

        datacenter = Datacenter(
            [PhysicalMachine(i, toy_shape, type_name="M3") for i in range(3)]
        )
        sim = CloudSimulation(
            datacenter,
            FirstFitPolicy(),
            MinimumMigrationTimeSelector(),
            SimulationConfig(
                duration_s=600.0,
                monitor_interval_s=300.0,
                underload_threshold=0.5,
            ),
        )
        for pm_id in (0, 1):
            vm = VirtualMachine(pm_id, vm2, ConstantTrace(0.05))
            machine = datacenter.machine(pm_id)
            placement = balanced_placement(toy_shape, machine.usage, vm2)
            datacenter.apply(vm, PlacementDecision(pm_id=pm_id, placement=placement))
        result = sim.run([])
        assert result.migrations >= 1

    def test_no_consolidation_when_disabled(self, toy_shape, vm2):
        sim, datacenter = make_sim(toy_shape)
        events = [event(i, vm2, arrival=0.0, level=0.05) for i in range(2)]
        result = sim.run_events(events)
        assert result.consolidations == 0


def _place_on_units(datacenter, vm, pm_id, units):
    """Apply ``vm`` to ``pm_id`` with one chunk per named unit."""
    from repro.core.permutations import Placement, apply_assignments
    from repro.core.policy import PlacementDecision

    machine = datacenter.machine(pm_id)
    assignments = (tuple((unit, chunk) for unit, chunk in units),)
    placement = Placement(
        new_usage=machine.shape.canonicalize(
            apply_assignments(machine.usage, assignments)
        ),
        assignments=assignments,
    )
    datacenter.apply(vm, PlacementDecision(pm_id=pm_id, placement=placement))


@pytest.mark.parametrize("substrate", ["object", "soa"])
def test_failed_drain_restores_the_source_units(toy_shape, vm1, substrate):
    """A rolled-back underload drain puts every VM back on its own units.

    PM0 holds two 1-core VMs stacked on unit 0.  First Fit moves the
    first onto PM1's last free core; the second finds no home, so the
    move is rolled back, and PM0 must come back as ``(2, 0, 0, 0)``,
    not as a re-balanced ``(1, 1, 0, 0)``.
    """
    from repro.cluster.simulation import CloudSimulation
    from repro.core.profile import VMType
    from repro.core.soa import SoADatacenter

    if substrate == "object":
        datacenter = Datacenter(
            [PhysicalMachine(i, toy_shape, type_name="M3") for i in range(3)]
        )
    else:
        datacenter = SoADatacenter([(i, toy_shape, "M3") for i in range(3)])
    filler = VMType(name="filler", demands=((4, 4, 4, 3),))
    _place_on_units(
        datacenter, VirtualMachine(10, filler, ConstantTrace(1.0)), 1,
        [(0, 4), (1, 4), (2, 4), (3, 3)],
    )
    for vm_id in (0, 1):
        _place_on_units(
            datacenter, VirtualMachine(vm_id, vm1, ConstantTrace(0.05)), 0,
            [(0, 1)],
        )
    before = datacenter.machine(0).usage
    assert before == ((2, 0, 0, 0),)
    sim = CloudSimulation(
        datacenter,
        FirstFitPolicy(),
        MinimumMigrationTimeSelector(),
        SimulationConfig(
            duration_s=600.0,
            monitor_interval_s=300.0,
            underload_threshold=0.5,
        ),
    )
    result = sim.run([])
    assert result.consolidations == 0
    assert datacenter.locate(0) == datacenter.locate(1) == 0
    assert datacenter.machine(0).usage == before
