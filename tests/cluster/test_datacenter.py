"""Tests for datacenter bookkeeping and migration mechanics."""

import pytest

import repro.cluster.datacenter as object_datacenter
import repro.core.soa.datacenter as soa_datacenter
from repro.cluster.datacenter import Datacenter
from repro.cluster.machine import PhysicalMachine
from repro.cluster.vm import VirtualMachine
from repro.core.permutations import (
    Placement,
    apply_assignments,
    balanced_placement,
)
from repro.core.policy import PlacementDecision
from repro.core.soa import SoADatacenter
from repro.util.validation import ValidationError


def decision_for(datacenter, pm_id, vm_type):
    machine = datacenter.machine(pm_id)
    placement = balanced_placement(machine.shape, machine.usage, vm_type)
    assert placement is not None
    return PlacementDecision(pm_id=pm_id, placement=placement)


@pytest.fixture
def datacenter(toy_shape):
    return Datacenter([PhysicalMachine(i, toy_shape) for i in range(3)])


class TestInventory:
    def test_requires_machines(self):
        with pytest.raises(ValidationError):
            Datacenter([])

    def test_duplicate_ids_rejected(self, toy_shape):
        with pytest.raises(ValidationError):
            Datacenter([PhysicalMachine(0, toy_shape), PhysicalMachine(0, toy_shape)])

    def test_machine_lookup(self, datacenter):
        assert datacenter.machine(1).pm_id == 1
        with pytest.raises(KeyError):
            datacenter.machine(42)

    def test_counts(self, datacenter, vm2):
        assert datacenter.n_machines == 3
        assert datacenter.pms_used == 0
        vm = VirtualMachine(1, vm2)
        datacenter.apply(vm, decision_for(datacenter, 0, vm2))
        assert datacenter.pms_used == 1
        assert datacenter.n_vms == 1
        assert datacenter.used_machines()[0].pm_id == 0


class TestApplyEvict:
    def test_apply_places_and_locates(self, datacenter, vm2):
        vm = VirtualMachine(1, vm2)
        datacenter.apply(vm, decision_for(datacenter, 2, vm2))
        assert datacenter.locate(1) == 2

    def test_double_apply_rejected(self, datacenter, vm2):
        vm = VirtualMachine(1, vm2)
        datacenter.apply(vm, decision_for(datacenter, 0, vm2))
        with pytest.raises(ValidationError):
            datacenter.apply(vm, decision_for(datacenter, 1, vm2))

    def test_evict_returns_allocation(self, datacenter, vm2):
        vm = VirtualMachine(1, vm2)
        datacenter.apply(vm, decision_for(datacenter, 0, vm2))
        allocation = datacenter.evict(1)
        assert allocation.vm is vm
        assert datacenter.locate(1) is None
        assert datacenter.pms_used == 0

    def test_evict_unknown_rejected(self, datacenter):
        with pytest.raises(KeyError):
            datacenter.evict(7)


class TestMigrate:
    def test_moves_vm(self, datacenter, vm2):
        vm = VirtualMachine(1, vm2)
        datacenter.apply(vm, decision_for(datacenter, 0, vm2))
        datacenter.migrate(1, decision_for(datacenter, 1, vm2))
        assert datacenter.locate(1) == 1
        assert not datacenter.machine(0).is_used
        assert datacenter.machine(1).is_used

    def test_failed_migration_restores_source(self, datacenter, toy_shape, vm2):
        vm = VirtualMachine(1, vm2)
        datacenter.apply(vm, decision_for(datacenter, 0, vm2))
        source_usage = datacenter.machine(0).usage
        bad = PlacementDecision(
            pm_id=99,  # unknown PM
            placement=balanced_placement(toy_shape, toy_shape.empty_usage(), vm2),
        )
        with pytest.raises(KeyError):
            datacenter.migrate(1, bad)
        assert datacenter.locate(1) == 0
        assert datacenter.machine(0).usage == source_usage

    def test_migrate_to_same_pm_after_eviction_allowed(self, datacenter, vm2):
        vm = VirtualMachine(1, vm2)
        datacenter.apply(vm, decision_for(datacenter, 0, vm2))
        datacenter.migrate(1, decision_for(datacenter, 0, vm2))
        assert datacenter.locate(1) == 0


class TestRollbackPlacement:
    @pytest.mark.parametrize("substrate", ["object", "soa"])
    def test_rollback_onto_out_of_order_pm_is_canonical(
        self, substrate, toy_shape, vm1, vm2, monkeypatch
    ):
        # Units 0 and 1 loaded, 2 and 3 idle: the PM's real unit order
        # (2, 1, 0, 0) is not its canonical order (0, 0, 1, 2).
        module = object_datacenter if substrate == "object" else soa_datacenter
        machines = [PhysicalMachine(i, toy_shape) for i in range(2)]
        dc = (
            Datacenter(machines) if substrate == "object"
            else SoADatacenter.from_machines(machines)
        )
        for vm_id, vm_type, assignment in (
            (1, vm2, ((0, 1), (1, 1))),
            (2, vm1, ((0, 1),)),
        ):
            usage = dc.machine(0).usage
            placement = Placement(
                new_usage=toy_shape.canonicalize(
                    apply_assignments(usage, (assignment,))
                ),
                assignments=(assignment,),
            )
            dc.apply(
                VirtualMachine(vm_id, vm_type), PlacementDecision(0, placement)
            )
        assert dc.machine(0).usage == ((2, 1, 0, 0),)

        restored = []
        restore = object_datacenter.restore_placement

        def spy(machine, allocation):
            placement = restore(machine, allocation)
            restored.append((machine.usage, placement))
            return placement

        monkeypatch.setattr(module, "restore_placement", spy)
        bad = PlacementDecision(
            pm_id=1,
            placement=Placement(new_usage=((0, 0, 1, 5),), assignments=(((3, 5),),)),
        )
        with pytest.raises(ValidationError):
            dc.migrate(2, bad)  # 5 units on a 4-unit core: rolled back
        assert dc.locate(2) == 0
        assert dc.machine(0).usage == ((2, 1, 0, 0),)
        (source_usage, placement), = restored
        assert source_usage == ((1, 1, 0, 0),)
        assert placement.assignments == (((0, 1),),)
        assert placement.new_usage == ((0, 0, 1, 2),)
        assert placement.new_usage == toy_shape.canonicalize(
            apply_assignments(source_usage, placement.assignments)
        )
        assert dc.usage_index.check_consistency() == []
