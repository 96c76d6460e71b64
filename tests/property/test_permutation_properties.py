"""Property-based tests for placement enumeration invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.datacenter import Datacenter
from repro.cluster.machine import PhysicalMachine
from repro.cluster.vm import VirtualMachine
from repro.core.permutations import (
    Placement,
    apply_assignments,
    balanced_placement,
    can_place,
    enumerate_placements,
    first_fit_placement,
    remap_placement,
)
from repro.core.policy import PlacementDecision
from repro.core.profile import MachineShape, ResourceGroup, VMType


@st.composite
def placement_cases(draw):
    n_units = draw(st.integers(min_value=1, max_value=5))
    cap = draw(st.integers(min_value=1, max_value=6))
    shape = MachineShape(
        groups=(ResourceGroup(name="cpu", capacities=(cap,) * n_units),)
    )
    usage = (
        tuple(draw(st.integers(min_value=0, max_value=cap)) for _ in range(n_units)),
    )
    n_chunks = draw(st.integers(min_value=1, max_value=n_units))
    chunks = tuple(
        draw(st.integers(min_value=1, max_value=cap)) for _ in range(n_chunks)
    )
    vm = VMType(name="vm", demands=(chunks,))
    return shape, usage, vm


class TestEnumerationInvariants:
    @given(placement_cases())
    @settings(max_examples=200)
    def test_results_distinct_and_canonical(self, case):
        shape, usage, vm = case
        seen = set()
        for placement in enumerate_placements(shape, usage, vm):
            assert placement.new_usage not in seen
            seen.add(placement.new_usage)
            assert placement.new_usage == shape.canonicalize(placement.new_usage)

    @given(placement_cases())
    @settings(max_examples=200)
    def test_assignments_realize_canonical_usage(self, case):
        shape, usage, vm = case
        for placement in enumerate_placements(shape, usage, vm):
            realized = apply_assignments(usage, placement.assignments)
            assert shape.canonicalize(realized) == placement.new_usage

    @given(placement_cases())
    @settings(max_examples=200)
    def test_anti_collocation_respected(self, case):
        shape, usage, vm = case
        for placement in enumerate_placements(shape, usage, vm):
            units = [idx for idx, _ in placement.assignments[0]]
            assert len(set(units)) == len(units)

    @given(placement_cases())
    @settings(max_examples=200)
    def test_capacity_respected(self, case):
        shape, usage, vm = case
        for placement in enumerate_placements(shape, usage, vm):
            assert shape.fits_usage(
                apply_assignments(usage, placement.assignments)
            )

    @given(placement_cases())
    @settings(max_examples=200)
    def test_can_place_iff_enumeration_nonempty(self, case):
        shape, usage, vm = case
        enumerated = list(enumerate_placements(shape, usage, vm))
        assert can_place(shape, usage, vm) == bool(enumerated)


class TestStrategyConsistency:
    @given(placement_cases())
    @settings(max_examples=200)
    def test_balanced_result_among_enumerated(self, case):
        shape, usage, vm = case
        placed = balanced_placement(shape, usage, vm)
        enumerated = {p.new_usage for p in enumerate_placements(shape, usage, vm)}
        if placed is None:
            assert not enumerated
        else:
            assert placed.new_usage in enumerated

    @given(placement_cases())
    @settings(max_examples=200)
    def test_first_fit_result_among_enumerated_when_it_succeeds(self, case):
        shape, usage, vm = case
        placed = first_fit_placement(shape, usage, vm)
        if placed is not None:
            enumerated = {
                p.new_usage for p in enumerate_placements(shape, usage, vm)
            }
            assert placed.new_usage in enumerated

    @given(placement_cases())
    @settings(max_examples=200)
    def test_total_units_conserved(self, case):
        shape, usage, vm = case
        before = sum(sum(g) for g in usage)
        demanded = vm.total_units()
        for placement in enumerate_placements(shape, usage, vm):
            after = sum(sum(g) for g in placement.new_usage)
            assert after == before + demanded


@st.composite
def remap_cases(draw):
    """A shape with runs of equal-capacity units, a real (unsorted) usage
    on it and a VM; the usage is drawn per unit, so runs are permuted."""
    runs = draw(st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=6),
            st.integers(min_value=1, max_value=3),
        ),
        min_size=1, max_size=3,
    ))
    capacities = tuple(sorted(cap for cap, count in runs for _ in range(count)))
    mem = draw(st.integers(min_value=1, max_value=8))
    shape = MachineShape(groups=(
        ResourceGroup(name="cpu", capacities=capacities),
        ResourceGroup(name="mem", capacities=(mem,), anti_collocation=False),
    ))
    usage = (
        tuple(draw(st.integers(min_value=0, max_value=cap)) for cap in capacities),
        (draw(st.integers(min_value=0, max_value=mem)),),
    )
    n_chunks = draw(st.integers(min_value=1, max_value=len(capacities)))
    chunks = tuple(
        draw(st.integers(min_value=1, max_value=capacities[-1]))
        for _ in range(n_chunks)
    )
    vm = VMType(
        name="vm",
        demands=(chunks, (draw(st.integers(min_value=0, max_value=mem)),)),
    )
    return shape, usage, vm


def _machine_at(shape, usage):
    """A one-PM datacenter whose only PM holds ``usage`` in real order."""
    datacenter = Datacenter([PhysicalMachine(0, shape)])
    filler = tuple(
        tuple((idx, used) for idx, used in enumerate(group) if used > 0)
        for group in usage
    )
    datacenter.apply(
        VirtualMachine(0, VMType(name="filler", demands=usage)),
        PlacementDecision(
            pm_id=0,
            placement=Placement(
                new_usage=shape.canonicalize(usage), assignments=filler
            ),
        ),
    )
    assert datacenter.machine(0).usage == usage
    return datacenter


class TestRemapPlacement:
    @given(remap_cases())
    @settings(max_examples=200, deadline=None)
    def test_remapped_placement_is_valid_on_the_real_units(self, case):
        # Placements enumerated on the canonical usage, remapped onto the
        # real unit order, must pass the datacenter's capacity and
        # anti-collocation checks and reach the same canonical usage.
        shape, usage, vm = case
        canonical = shape.canonicalize(usage)
        for vm_id, placement in enumerate(
            enumerate_placements(shape, canonical, vm), start=1
        ):
            remapped = remap_placement(shape, usage, placement)
            assert remapped.new_usage == placement.new_usage
            assert shape.canonicalize(
                apply_assignments(usage, remapped.assignments)
            ) == placement.new_usage
            datacenter = _machine_at(shape, usage)
            datacenter.apply(
                VirtualMachine(vm_id, vm),
                PlacementDecision(pm_id=0, placement=remapped),
            )
            assert datacenter.machine(0).usage == apply_assignments(
                usage, remapped.assignments
            )
