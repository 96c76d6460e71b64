"""Tests for profile-graph generation."""

import hashlib

import numpy as np
import pytest

from repro.core.graph import (
    GraphLimitExceeded,
    SuccessorStrategy,
    build_profile_graph,
)
from repro.core.profile import MachineShape, ResourceGroup, VMType
from repro.util.validation import ValidationError


class TestFullMode:
    def test_toy_node_count(self, toy_graph):
        assert toy_graph.n_nodes == 70

    def test_contains_empty_and_full(self, toy_graph, toy_shape):
        assert toy_graph.contains(toy_shape.empty_usage())
        assert toy_graph.contains(toy_shape.full_usage())

    def test_edges_are_placements(self, toy_graph, toy_shape, toy_vm_types):
        from repro.core.permutations import enumerate_placements

        for node in range(toy_graph.n_nodes):
            usage = toy_graph.profiles[node]
            expected = set()
            for vm in toy_vm_types:
                for placed in enumerate_placements(toy_shape, usage, vm):
                    expected.add(placed.new_usage)
            got = {toy_graph.profiles[s] for s in toy_graph.successors[node]}
            assert got == expected

    def test_graph_is_dag(self, toy_graph):
        # Total usage strictly increases along every edge.
        for node, successors in enumerate(toy_graph.successors):
            node_units = sum(sum(g) for g in toy_graph.profiles[node])
            for succ in successors:
                succ_units = sum(sum(g) for g in toy_graph.profiles[succ])
                assert succ_units > node_units

    def test_best_profile_is_sink(self, toy_graph, toy_shape):
        full_id = toy_graph.node_id(toy_shape.full_usage())
        assert toy_graph.successors[full_id] == ()

    def test_topological_order_respects_edges(self, toy_graph):
        position = {n: i for i, n in enumerate(toy_graph.topological_order())}
        for node, successors in enumerate(toy_graph.successors):
            for succ in successors:
                assert position[node] < position[succ]

    def test_limit_enforced(self, toy_shape, toy_vm_types):
        with pytest.raises(GraphLimitExceeded):
            build_profile_graph(toy_shape, toy_vm_types, mode="full", node_limit=10)


class TestReachableMode:
    def test_subset_of_full(self, toy_shape, toy_vm_types, toy_graph):
        reachable = build_profile_graph(toy_shape, toy_vm_types, mode="reachable")
        assert reachable.n_nodes < toy_graph.n_nodes
        for usage in reachable.profiles:
            assert toy_graph.contains(usage)

    def test_reachable_profiles_have_even_totals(self, toy_shape, toy_vm_types):
        # Both toy VMs add an even number of units, so every reachable
        # profile has even total usage.
        graph = build_profile_graph(toy_shape, toy_vm_types, mode="reachable")
        for usage in graph.profiles:
            assert sum(sum(g) for g in usage) % 2 == 0

    def test_root_is_empty_profile(self, toy_shape, toy_vm_types):
        graph = build_profile_graph(toy_shape, toy_vm_types, mode="reachable")
        assert graph.profiles[0] == toy_shape.empty_usage()

    def test_limit_enforced(self, toy_shape, toy_vm_types):
        with pytest.raises(GraphLimitExceeded):
            build_profile_graph(
                toy_shape, toy_vm_types, mode="reachable", node_limit=3
            )


class TestBalancedStrategy:
    def test_at_most_one_edge_per_vm_type(self, toy_shape, toy_vm_types):
        graph = build_profile_graph(
            toy_shape,
            toy_vm_types,
            strategy=SuccessorStrategy.BALANCED,
            mode="reachable",
        )
        for successors in graph.successors:
            assert len(successors) <= len(toy_vm_types)

    def test_balanced_subgraph_of_all_placements(self, toy_shape, toy_vm_types):
        balanced = build_profile_graph(
            toy_shape, toy_vm_types, strategy=SuccessorStrategy.BALANCED
        )
        full = build_profile_graph(
            toy_shape, toy_vm_types, strategy=SuccessorStrategy.ALL_PLACEMENTS
        )
        assert balanced.n_nodes <= full.n_nodes
        for usage in balanced.profiles:
            assert full.contains(usage)


class TestValidation:
    def test_empty_vm_set_rejected(self, toy_shape):
        with pytest.raises(ValidationError):
            build_profile_graph(toy_shape, [], mode="full")

    def test_zero_demand_vm_rejected(self, toy_shape):
        ghost = VMType(name="ghost", demands=((0, 0, 0, 0),))
        with pytest.raises(ValidationError):
            build_profile_graph(toy_shape, [ghost])

    def test_group_mismatch_rejected(self, toy_shape, mixed_vm):
        with pytest.raises(ValidationError):
            build_profile_graph(toy_shape, [mixed_vm])

    def test_unknown_mode_rejected(self, toy_shape, toy_vm_types):
        with pytest.raises(ValidationError):
            build_profile_graph(toy_shape, toy_vm_types, mode="bogus")


class TestGraphQueries:
    def test_n_edges(self, toy_graph):
        assert toy_graph.n_edges == sum(len(s) for s in toy_graph.successors)

    def test_node_id_roundtrip(self, toy_graph):
        for node in range(0, toy_graph.n_nodes, 7):
            assert toy_graph.node_id(toy_graph.profiles[node]) == node

    def test_node_id_missing_returns_none(self, toy_graph):
        assert toy_graph.node_id(((9, 9, 9, 9),)) is None

    def test_sinks_cannot_host_any_vm(self, toy_graph, toy_shape, toy_vm_types):
        from repro.core.permutations import can_place

        for sink in toy_graph.sinks():
            usage = toy_graph.profiles[sink]
            assert not any(
                can_place(toy_shape, usage, vm) for vm in toy_vm_types
            )

    def test_utilizations_in_unit_interval(self, toy_graph):
        utils = toy_graph.utilizations()
        assert all(0.0 <= u <= 1.0 for u in utils)

    def test_profile_accessor(self, toy_graph):
        profile = toy_graph.profile(0)
        assert profile.usage == toy_graph.profiles[0]

    def test_packed_profiles_match_flat(self, toy_graph):
        packed = toy_graph.packed_profiles()
        assert packed.dtype.kind == "u"
        np.testing.assert_array_equal(
            packed.astype(np.int64), toy_graph.flat_profiles()
        )

    def test_successor_csr_matches_successors(self, toy_graph):
        indptr, indices = toy_graph.successor_csr()
        assert indptr.shape == (toy_graph.n_nodes + 1,)
        assert int(indptr[-1]) == toy_graph.n_edges
        for node, succ in enumerate(toy_graph.successors):
            got = tuple(int(s) for s in indices[indptr[node]:indptr[node + 1]])
            assert got == succ


def graph_digest(graph):
    """sha256 over the packed profiles and the successor CSR, in id order."""
    digest = hashlib.sha256()
    packed = np.ascontiguousarray(graph.packed_profiles())
    digest.update(str(packed.dtype).encode())
    digest.update(repr(packed.shape).encode())
    digest.update(packed.tobytes())
    for array in graph.successor_csr():
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return digest.hexdigest()


class TestGoldenDigest:
    """Node-id order is part of the contract: the graph cache and the
    delta plane index by it, so any builder change that reorders nodes
    or edges must show up here (and bump ``BUILDER_CODE_VERSION``)."""

    @pytest.mark.parametrize(
        "strategy, mode, nodes, edges, expected",
        [
            (SuccessorStrategy.ALL_PLACEMENTS, "reachable", 33, 84,
             "ca20aca4dd3b20bf3ed239a20d826a2de79a42beca345ca901080001ab3af40e"),
            (SuccessorStrategy.ALL_PLACEMENTS, "full", 70, 185,
             "80fb273fd8aac88af1ac5d7f19a11bc20ae6db9424b820096c1b88890385694c"),
            (SuccessorStrategy.BALANCED, "reachable", 9, 15,
             "82e833ec7ebe98033d21d3c84a813f59b938487d659413b1dda5f9d6e1ecde0e"),
            (SuccessorStrategy.BALANCED, "full", 70, 100,
             "53c8b5570fb633c97ffe5e73d0934bd284f6d91ecc240838e4b195d956acdbd2"),
        ],
        ids=[
            "all_placements-reachable", "all_placements-full",
            "balanced-reachable", "balanced-full",
        ],
    )
    def test_toy_graph_digest(
        self, toy_shape, toy_vm_types, strategy, mode, nodes, edges, expected
    ):
        graph = build_profile_graph(
            toy_shape, toy_vm_types, strategy=strategy, mode=mode
        )
        assert (graph.n_nodes, graph.n_edges) == (nodes, edges)
        assert graph_digest(graph) == expected
