"""FleetDeltaPlane: live VM-type registration and zero-downtime swaps.

The delta plane's contract is that the *served decisions* are
indistinguishable from a cold rebuild: an equal-content hot swap leaves
the rolling decision digest bit-identical, and a registration produces
the same placements a service cold-built with the grown catalog makes.
"""

import math

import pytest

from repro.core.profile import VMType
from repro.core.score_table import build_score_table
from repro.serve.fleet import (
    FleetDeltaPlane,
    build_toy_service,
    toy_shape,
    toy_vm_types,
)
from repro.serve.service import PlacementService, ServeRequest
from repro.util.validation import ValidationError


def _mixed_stream(names, n_requests=24, start_id=0):
    return [
        ServeRequest(
            op="place",
            request_id=start_id + i,
            vm_type=names[i % len(names)],
            utilization=0.1 + 0.05 * (i % 7),
        )
        for i in range(n_requests)
    ]


def _vm3():
    return VMType(name="vm3", demands=((1, 1, 1),))


class TestSwapCurrent:
    def test_equal_content_swap_keeps_the_digest(self):
        swapped = build_toy_service(n_pms=6)
        control = build_toy_service(n_pms=6)
        plane = FleetDeltaPlane(swapped)
        stream = _mixed_stream(["vm2", "vm4"])
        swapped.serve_batch(stream[:12])
        plane.swap_current()
        swapped.serve_batch(stream[12:])
        control.serve_batch(stream)
        assert swapped.decision_digest == control.decision_digest

    def test_swap_replaces_the_policy_tables(self):
        service = build_toy_service(n_pms=4)
        plane = FleetDeltaPlane(service)
        before = dict(service.policy.tables)
        plane.swap_current()
        after = dict(service.policy.tables)
        assert before.keys() == after.keys()
        for shape in before:
            assert after[shape] is not before[shape]


class TestRegister:
    def test_register_grows_catalog_and_tables(self):
        service = build_toy_service(n_pms=4)
        plane = FleetDeltaPlane(service)
        shape = toy_shape()
        base = plane.graph_for(shape)
        base_edges = sum(len(s) for s in base.successors)
        report = plane.register(_vm3())
        grown = plane.graph_for(shape)
        # The toy catalog (vm1 included) already reaches the whole
        # lattice, so vm3 adds edges — a pure changed-sources delta.
        assert grown.n_nodes == base.n_nodes
        assert sum(len(s) for s in grown.successors) > base_edges
        assert "vm3" in service.vm_type_names
        assert len(plane.master_table(shape)) == grown.n_nodes
        shape_report = report["shapes"][repr(shape)]
        assert shape_report["n_nodes"] == grown.n_nodes
        assert shape_report["new_nodes"] == 0
        assert shape_report["changed_sources"] > 0
        assert plane.last_report is report
        # The new type is immediately placeable.
        [response] = service.serve_batch(
            [ServeRequest(op="place", request_id=99, vm_type="vm3")]
        )
        assert response.outcome == "placed"

    def test_master_scores_match_cold_rebuild(self):
        service = build_toy_service(n_pms=4)
        plane = FleetDeltaPlane(service)
        shape = toy_shape()
        plane.register(_vm3())
        cold = build_score_table(shape, toy_vm_types() + (_vm3(),))
        master = dict(plane.master_table(shape).items())
        expected = dict(cold.items())
        assert master.keys() == expected.keys()
        for usage, score in master.items():
            assert math.isclose(score, expected[usage], rel_tol=1e-9)

    def test_decisions_match_a_cold_built_service(self):
        catalog = toy_vm_types() + (_vm3(),)
        delta_service = build_toy_service(n_pms=6)
        plane = FleetDeltaPlane(delta_service)
        plane.register(_vm3())
        cold_table = build_score_table(toy_shape(), catalog)
        cold_service = build_toy_service(n_pms=6)
        cold_service.hot_swap({toy_shape(): cold_table}, vm_types=catalog)
        stream = _mixed_stream(["vm2", "vm3", "vm4"], n_requests=30)
        delta_service.serve_batch(stream)
        cold_service.serve_batch(stream)
        assert delta_service.decision_digest == cold_service.decision_digest

    def test_duplicate_registration_rejected(self):
        service = build_toy_service(n_pms=4)
        plane = FleetDeltaPlane(service)
        with pytest.raises(ValidationError):
            plane.register(VMType(name="vm2", demands=((1, 1),)))

    def test_policy_without_tables_rejected(self):
        import types

        tableless = types.SimpleNamespace(
            policy=types.SimpleNamespace(tables={}), vm_type_catalog=()
        )
        with pytest.raises(ValidationError):
            FleetDeltaPlane(tableless)
