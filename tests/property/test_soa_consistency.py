"""Property-based tests: the SoA index survives arbitrary op interleavings.

For arbitrary interleavings of place / evict / migrate (including a
failed migration that rolls back) / crash / repair / rebuild the
columnar datacenter's usage-class index must stay internally consistent
(``check_consistency``), its columns must re-derive exactly from the
allocation records (``check_columns``, the auditor's I2), and every
entry of its transition table must equal a fresh computation within
the table's bound (``TransitionTable.check``) — after every operation,
not only at the end.  At toy scale the full MIP constraint replay must
pass.  A small number of examples also runs at 5k PMs — the scale where
the sharded columns actually span many shards — to catch base/row
addressing bugs the toy world cannot.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import audit_datacenter
from repro.cluster.vm import VirtualMachine
from repro.core.placement import PageRankVMPolicy
from repro.core.soa import SoADatacenter
from repro.core.soa import transitions
from repro.traces.base import ConstantTrace
from repro.util.validation import ValidationError

OPS = (
    "place", "place", "place", "evict", "migrate", "failed_migrate",
    "crash", "repair", "rebuild",
)


@st.composite
def op_sequences(draw, max_ops=24):
    n = draw(st.integers(min_value=1, max_value=max_ops))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(OPS))
        ops.append((kind, draw(st.integers(min_value=0, max_value=63))))
    return tuple(ops)


class _Driver:
    """One SoA datacenter driven through the op vocabulary."""

    def __init__(self, toy_shape, toy_table, n_pms, shard_size):
        self.dc = SoADatacenter(
            [(i, toy_shape, "M3") for i in range(n_pms)],
            shard_size=shard_size,
        )
        self.policy = PageRankVMPolicy({toy_shape: toy_table})
        self.placed = {}  # vm_id -> VMType
        self.next_id = 0

    def step(self, op, vm_types):
        kind, pick = op
        if kind == "place":
            vm_type = vm_types[pick % len(vm_types)]
            decision = self.policy.select(vm_type, self.dc.indexed_machines())
            if decision is None:
                return
            vm_id = self.next_id
            self.next_id += 1
            self.dc.apply(
                VirtualMachine(vm_id, vm_type, ConstantTrace(0.4)), decision
            )
            self.placed[vm_id] = vm_type
        elif kind == "evict":
            if not self.placed:
                return
            vm_id = sorted(self.placed)[pick % len(self.placed)]
            self.dc.evict(vm_id)
            del self.placed[vm_id]
        elif kind == "migrate":
            if not self.placed:
                return
            vm_id = sorted(self.placed)[pick % len(self.placed)]
            source = self.dc.locate(vm_id)
            decision = self.policy.select_excluding(
                self.placed[vm_id], self.dc.indexed_machines(),
                excluded_pm=source,
            )
            if decision is None:
                return
            self.dc.migrate(vm_id, decision)
        elif kind == "failed_migrate":
            if not self.placed:
                return
            vm_id = sorted(self.placed)[pick % len(self.placed)]
            source = self.dc.locate(vm_id)
            before = self.dc.machine(source).usage
            decision = self.policy.select_excluding(
                self.placed[vm_id], self.dc.indexed_machines(),
                excluded_pm=source,
            )
            failed = [m.pm_id for m in self.dc.machines if m.is_failed]
            if decision is None or not failed:
                return
            # Aim the destination at a crashed PM: apply() raises and the
            # VM must roll back onto its source exactly.
            bad = dataclasses.replace(decision, pm_id=failed[pick % len(failed)])
            with pytest.raises(ValidationError):
                self.dc.migrate(vm_id, bad)
            assert self.dc.locate(vm_id) == source
            assert self.dc.machine(source).usage == before
        elif kind == "rebuild":
            table = self.dc.transitions
            old_states = table.states()  # held, so no id can be reused
            epoch = self.dc.usage_index.epoch
            self.dc.rebuild()
            assert self.dc.usage_index.epoch == epoch + 1
            assert len(table) == 0
            old_ids = {id(state) for state in old_states}
            assert not any(
                id(state) in old_ids for state in table.states()
            )
            assert not any(
                id(view.row_state) in old_ids for view in self.dc.machines
            )
        elif kind == "crash":
            healthy = [m.pm_id for m in self.dc.machines if not m.is_failed]
            if not healthy:
                return
            pm_id = healthy[pick % len(healthy)]
            for allocation in self.dc.crash_machine(pm_id):
                del self.placed[allocation.vm_id]
        elif kind == "repair":
            failed = [m.pm_id for m in self.dc.machines if m.is_failed]
            if not failed:
                return
            pm_id = failed[pick % len(failed)]
            self.dc.repair_machine(pm_id)

    def check(self):
        assert self.dc.usage_index.check_consistency() == []
        assert self.dc.check_columns() == []
        table = self.dc.transitions
        assert table.check() == []
        assert table.n_states <= table.max_entries
        assert len(table) <= 2 * table.max_entries

    def run(self, ops, vm_types):
        for op in ops:
            self.step(op, vm_types)
            self.check()


class TestSoAConsistency:
    @given(ops=op_sequences())
    @settings(max_examples=25, deadline=None)
    def test_any_op_sequence_keeps_columns_consistent(
        self, ops, toy_shape, toy_table, vm1, vm2, vm4
    ):
        # shard_size=3 at 8 PMs: three shards, the last one ragged.
        driver = _Driver(toy_shape, toy_table, n_pms=8, shard_size=3)
        driver.run(ops, (vm1, vm2, vm4))
        audit_datacenter(
            driver.dc, expected_vm_ids=sorted(driver.placed)
        ).raise_if_failed()

    @given(ops=op_sequences(max_ops=40))
    @settings(max_examples=3, deadline=None)
    def test_op_sequences_at_5k_pms(
        self, ops, toy_shape, toy_table, vm1, vm2, vm4
    ):
        # Many shards (5000 / 1024 -> 5, the last ragged): crash/repair
        # and migrations must address rows across shard boundaries.
        driver = _Driver(toy_shape, toy_table, n_pms=5_000, shard_size=1_024)
        for op in ops:
            driver.step(op, (vm1, vm2, vm4))
        driver.check()

    @given(ops=op_sequences(max_ops=40))
    @settings(max_examples=25, deadline=None)
    def test_tight_table_bound_holds_and_stays_exact(
        self, ops, toy_shape, toy_table, vm1, vm2, vm4
    ):
        # A tight bound makes the op sequences exercise LRU eviction.
        with mock.patch.object(transitions, "TRANSITION_ENTRIES", 3):
            driver = _Driver(toy_shape, toy_table, n_pms=8, shard_size=3)
        assert driver.dc.transitions.max_entries == 3
        driver.run(ops, (vm1, vm2, vm4))

    @given(ops=op_sequences())
    @settings(max_examples=15, deadline=None)
    def test_datacenters_never_share_table_entries(
        self, ops, toy_shape, toy_table, vm1, vm2, vm4
    ):
        first = _Driver(toy_shape, toy_table, n_pms=8, shard_size=3)
        second = _Driver(toy_shape, toy_table, n_pms=8, shard_size=3)
        for op in ops:
            first.step(op, (vm1, vm2, vm4))
            second.step(op, (vm1, vm2, vm4))
            assert first.dc.transitions is not second.dc.transitions
            ids = {id(state) for state in first.dc.transitions.states()}
            ids.update(id(view.row_state) for view in first.dc.machines)
            assert not any(
                id(state) in ids for state in second.dc.transitions.states()
            )
            assert not any(
                id(view.row_state) in ids for view in second.dc.machines
            )
