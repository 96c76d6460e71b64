"""Unit tests of the struct-of-arrays core: columns, class table, epochs.

The end-to-end identity of the SoA substrate is covered in
``tests/cluster/test_soa_identity.py``; here the individual mechanisms
are pinned down — class-id interning, the per-row usage states and
their transition table, rebuild/epoch invalidation of the policy memo
(the LRU-vs-bulk-rebuild contract), and the I2 column audit.
"""

import numpy as np
import pytest

from repro.analysis.invariants import audit_datacenter
from repro.cluster.vm import VirtualMachine
from repro.core.placement import PageRankVMPolicy
from repro.core.soa import SoADatacenter
from repro.core.permutations import enumerate_placements, remap_placement
from repro.core.soa.columns import ShapeInfo
from repro.core.soa.index import SoAClassTable
from repro.core.soa import transitions
from repro.core.soa.transitions import TransitionTable
from repro.traces.base import ConstantTrace


def soa_datacenter(toy_shape, count=8, shard_size=3):
    return SoADatacenter(
        [(i, toy_shape, "M3") for i in range(count)], shard_size=shard_size
    )


def place(dc, policy, vm_id, vm_type):
    decision = policy.select(vm_type, dc.indexed_machines())
    assert decision is not None
    dc.apply(VirtualMachine(vm_id, vm_type, ConstantTrace(0.3)), decision)
    return decision


class TestSoAClassTable:
    def test_ids_are_dense_and_monotone(self):
        table = SoAClassTable()
        a = table.update(("shape", "a"), [3, 5])
        b = table.update(("shape", "b"), [1])
        assert (a, b) == (0, 1)
        assert table.n_classes == 2
        assert table.lookup(("shape", "a")) == 0
        assert table.lookup(("shape", "missing")) == -1
        assert list(table.rep) == [3, 1]
        assert list(table.size) == [2, 1]

    def test_emptied_class_keeps_its_id(self):
        table = SoAClassTable()
        a = table.update(("shape", "a"), [2])
        table.update(("shape", "a"), None)
        assert table.lookup(("shape", "a")) == a
        assert int(table.size[a]) == 0
        # Refilling reuses the id: memoized per-id scores stay valid.
        assert table.update(("shape", "a"), [7]) == a
        assert int(table.rep[a]) == 7

    def test_columns_grow_past_the_initial_capacity(self):
        table = SoAClassTable()
        for i in range(200):
            table.update(("shape", i), [i])
        assert table.n_classes == 200
        assert int(table.rep[150]) == 150
        assert int(table.size[150]) == 1


class TestUsageTupleCache:
    def test_repeat_reads_hit_the_cache(self, toy_shape, toy_table, vm2):
        dc = soa_datacenter(toy_shape)
        policy = PageRankVMPolicy({toy_shape: toy_table})
        place(dc, policy, 0, vm2)
        machine = dc.machine(dc.locate(0))
        first = machine.usage
        assert machine.usage is first  # cached tuple, not re-materialized

    def test_mutations_invalidate_the_cached_tuple(
        self, toy_shape, toy_table, vm2
    ):
        dc = soa_datacenter(toy_shape)
        policy = PageRankVMPolicy({toy_shape: toy_table})
        place(dc, policy, 0, vm2)
        machine = dc.machine(dc.locate(0))
        before = machine.usage
        place(dc, policy, 1, vm2)  # policy packs onto the same PM
        assert dc.locate(1) == machine.pm_id
        after = machine.usage
        assert after is not before
        assert sum(u for g in after for u in g) == 2 * sum(
            u for g in before for u in g
        )
        dc.evict(1)
        assert machine.usage == before

    def test_rebuild_drops_every_cached_tuple(
        self, toy_shape, toy_table, vm2
    ):
        dc = soa_datacenter(toy_shape)
        policy = PageRankVMPolicy({toy_shape: toy_table})
        place(dc, policy, 0, vm2)
        machine = dc.machine(dc.locate(0))
        before = machine.usage
        dc.rebuild()
        assert machine.usage == before  # value identical, freshly derived


class TestTransitionTable:
    def test_step_is_exact_and_shared(self, toy_shape):
        table = TransitionTable([ShapeInfo(toy_shape, 0)])
        empty = table.state(0, toy_shape.empty_usage())
        move = (((1, 1), (3, 2)),)
        after = table.step(empty, move)
        assert after.usage == ((0, 1, 0, 2),)
        assert after.canonical == ((0, 0, 1, 2),)
        assert list(after.flat) == [0, 1, 0, 2]
        assert list(after.canon_flat) == [0, 0, 1, 2]
        assert table.step(empty, move) is after  # a hit: same state object
        assert table.step(after, move, -1) is empty  # interned by content
        assert len(table) == 2
        assert table.check() == []

    def test_removal_below_zero_is_flagged(self, toy_shape):
        table = TransitionTable([ShapeInfo(toy_shape, 0)])
        empty = table.state(0, toy_shape.empty_usage())
        assert table.step(empty, (((0, 1),),), -1).negative
        assert not empty.negative

    def test_remap_matches_remap_placement(self, toy_shape, vm2):
        table = TransitionTable([ShapeInfo(toy_shape, 0)])
        state = table.state(0, ((3, 0, 1, 0),))
        for placement in enumerate_placements(toy_shape, state.canonical, vm2):
            expected = remap_placement(toy_shape, state.usage, placement)
            assert table.remap(state, placement) == expected
            assert table.remap(state, placement) is table.remap(state, placement)
        assert table.check() == []

    def test_every_map_is_a_bounded_lru(self, toy_shape, monkeypatch):
        monkeypatch.setattr(transitions, "TRANSITION_ENTRIES", 2)
        table = TransitionTable([ShapeInfo(toy_shape, 0)])
        state = table.state(0, toy_shape.empty_usage())
        for unit in range(4):
            state = table.step(state, (((unit, 1),),))
        assert table.n_states == 2
        assert len(table) == 2
        assert [s.usage for s in table.states()] == [
            ((1, 1, 1, 0),), ((1, 1, 1, 1),),
        ]
        assert table.check() == []
        table.clear()
        assert (table.n_states, len(table)) == (0, 0)

    def test_rebuild_clears_the_datacenter_table(
        self, toy_shape, toy_table, vm2
    ):
        dc = soa_datacenter(toy_shape)
        policy = PageRankVMPolicy({toy_shape: toy_table})
        place(dc, policy, 0, vm2)
        place(dc, policy, 1, vm2)
        table = dc.transitions
        assert len(table) > 0
        before = table.states()
        dc.rebuild()
        assert len(table) == 0
        assert not any(
            state is old for state in table.states() for old in before
        )
        assert table.check() == []
        assert dc.check_columns() == []


class TestRebuildEpoch:
    def test_rebuild_bumps_epoch_and_reinterns_ids(
        self, toy_shape, toy_table, vm2, vm4
    ):
        dc = soa_datacenter(toy_shape)
        policy = PageRankVMPolicy({toy_shape: toy_table})
        place(dc, policy, 0, vm2)
        place(dc, policy, 1, vm4)
        index = dc.usage_index
        epoch = index.epoch
        dc.rebuild()
        assert index.epoch > epoch
        assert index.check_consistency() == []
        assert dc.check_columns() == []

    def test_policy_memo_invalidates_on_rebuild(
        self, toy_shape, toy_table, vm2, vm4
    ):
        # The satellite contract: the best-candidate LRU keys on class
        # content and survives incremental churn, but a bulk rebuild
        # re-interns class ids, so the policy must drop every memo
        # written under the old epoch — and still decide identically.
        dc = soa_datacenter(toy_shape)
        policy = PageRankVMPolicy({toy_shape: toy_table})
        place(dc, policy, 0, vm2)
        place(dc, policy, 1, vm4)
        policy.select(vm2, dc.indexed_machines())
        occupancy = policy.cache_info().currsize
        assert occupancy >= 2
        dc.rebuild()
        decision = policy.select(vm2, dc.indexed_machines())
        fresh = PageRankVMPolicy({toy_shape: toy_table}).select(
            vm2, dc.indexed_machines()
        )
        assert decision.pm_id == fresh.pm_id
        assert decision.placement == fresh.placement
        # The memo was cleared at the epoch bump: only the entries the
        # post-rebuild select warmed are present.
        assert policy.cache_info().currsize < occupancy

    def test_fresh_index_keeps_content_addressed_memo(
        self, toy_shape, toy_table, vm2
    ):
        # A *different* index (new run, same class content) must not
        # throw away the content-addressed candidate memo.
        dc1 = soa_datacenter(toy_shape)
        policy = PageRankVMPolicy({toy_shape: toy_table})
        place(dc1, policy, 0, vm2)
        policy.select(vm2, dc1.indexed_machines())
        occupancy = policy.cache_info().currsize
        dc2 = soa_datacenter(toy_shape)
        policy.select(vm2, dc2.indexed_machines())
        assert policy.cache_info().currsize >= occupancy


class TestColumnAudit:
    def test_tampered_usage_column_fails_i2(self, toy_shape, toy_table, vm2):
        dc = soa_datacenter(toy_shape)
        policy = PageRankVMPolicy({toy_shape: toy_table})
        place(dc, policy, 0, vm2)
        report = audit_datacenter(dc, expected_vm_ids=[0])
        assert report.ok
        shard = dc.shards[0]
        shard.usage[0, 0] += 1  # simulate column corruption
        problems = dc.check_columns()
        assert problems and "usage column" in problems[0]
        report = audit_datacenter(dc, expected_vm_ids=[0])
        assert not report.ok
        assert any(v.constraint == "I2" for v in report.violations)

    def test_tampered_canonical_column_fails_i2(
        self, toy_shape, toy_table, vm2
    ):
        dc = soa_datacenter(toy_shape)
        policy = PageRankVMPolicy({toy_shape: toy_table})
        place(dc, policy, 0, vm2)
        pos = dc.locate(0)  # ids are inventory positions here
        dc.shards[pos // 3].canon[pos % 3, 0] += 1
        problems = dc.check_columns()
        assert problems and "canonical column" in problems[0]

    def test_diverged_row_state_fails_i2(self, toy_shape, toy_table, vm2):
        dc = soa_datacenter(toy_shape)
        policy = PageRankVMPolicy({toy_shape: toy_table})
        place(dc, policy, 0, vm2)
        pos = dc.locate(0)
        dc._rows[pos] = dc.transitions.state(0, toy_shape.empty_usage())
        problems = dc.check_columns()
        assert problems and "row state" in problems[0]


class TestSharedTraceColumns:
    """Traces handed to several VMs are stored once in the sample matrix."""

    def registered(self):
        from repro.core.soa.columns import TraceColumns
        from repro.traces.base import ArrayTrace

        rng = np.random.default_rng(5)
        distinct = [ArrayTrace(rng.uniform(0, 1, 12), 300.0) for _ in range(4)]
        # 30 VMs over 4 shared traces, plus one 7-sample trace (its own
        # group) and a constant one.
        traces = [distinct[int(i)] for i in rng.integers(0, 4, size=30)]
        traces += [ArrayTrace(rng.uniform(0, 1, 7), 60.0), ConstantTrace(0.4)]
        columns = TraceColumns()
        for vm_id, trace in enumerate(traces):
            columns.register(vm_id, trace)
        return columns, traces, distinct

    def test_fractions_equal_each_trace_bit_for_bit(self):
        columns, traces, _ = self.registered()
        for time_s in (0.0, 299.9, 300.0, 1234.5, 3600.0, 86_399.0):
            got = columns.fractions(time_s)
            want = np.array([t.utilization_at(time_s) for t in traces])
            assert got.tobytes() == want.tobytes(), time_s

    def test_one_matrix_row_per_distinct_sample_array(self):
        columns, traces, _ = self.registered()
        columns.fractions(0.0)
        group = columns._array_groups[(12, 300.0, True)]
        slots, rows, matrix = group.materialize()
        used = {id(t.samples) for t in traces[:30]}
        assert matrix.shape == (len(used), 12)
        for slot, row in zip(slots, rows):
            assert matrix[row].tobytes() == traces[slot].samples.tobytes()

    def test_a_later_registration_rebuilds_the_matrix(self):
        from repro.traces.base import ArrayTrace

        columns, traces, distinct = self.registered()
        columns.fractions(0.0)
        fresh = ArrayTrace(np.full(12, 0.25), 300.0)
        traces += [distinct[0], fresh]
        for vm_id in (len(traces) - 2, len(traces) - 1):
            columns.register(vm_id, traces[vm_id])
        got = columns.fractions(600.0)
        want = np.array([t.utilization_at(600.0) for t in traces])
        assert got.tobytes() == want.tobytes()
        _, _, matrix = columns._array_groups[(12, 300.0, True)].materialize()
        grouped = [t for t in traces if isinstance(t, ArrayTrace) and len(t) == 12]
        assert matrix.shape[0] == len({id(t.samples) for t in grouped})
