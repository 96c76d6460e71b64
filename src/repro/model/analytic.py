"""The MIP formulation of Section IV, as executable data structures.

The paper formulates VM placement with anti-collocation as an integer
program over assignment variables ``x_ij`` (VM i on PM j), ``y_ikjl``
(vCPU k of VM i on core l of PM j) and ``z_ikjl`` (virtual disk k on
physical disk l), with constraints (1)-(10) and the fixed-cost objective
(11).  Rather than materializing the exponential variable matrix, this
module represents a solution as per-VM concrete placements — exactly the
information content of (x, y, z) — and checks every constraint against
it.  The checker is deliberately independent from the machine-state code
in :mod:`repro.cluster`, so it can serve as a test oracle for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.permutations import Placement
from repro.core.policy import PlacementPolicy
from repro.core.profile import MachineShape, VMType
from repro.util.validation import require

__all__ = [
    "PlacementInstance",
    "PlacementSolution",
    "verify_constraints",
    "solution_from_policy",
]


@dataclass(frozen=True)
class PlacementInstance:
    """One problem instance: VMs, PMs and per-PM operating costs.

    Attributes:
        vms: the request set V (one :class:`VMType` per VM ``i``).
        pms: the machine set P (one shape per PM ``j``).
        costs: the fixed cost ``s_j`` of running PM ``j``; defaults to
            1.0 each, making the objective "minimize the number of PMs".
    """

    vms: Tuple[VMType, ...]
    pms: Tuple[MachineShape, ...]
    costs: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        require(len(self.vms) > 0, "instance needs at least one VM")
        require(len(self.pms) > 0, "instance needs at least one PM")
        if self.costs is not None:
            require(
                len(self.costs) == len(self.pms),
                f"{len(self.costs)} costs for {len(self.pms)} PMs",
            )
            require(all(c >= 0 for c in self.costs), "costs must be non-negative")

    def cost_of(self, pm_index: int) -> float:
        """The fixed cost ``s_j`` of PM ``j``."""
        if self.costs is None:
            return 1.0
        return self.costs[pm_index]


@dataclass(frozen=True)
class PlacementSolution:
    """An assignment of every VM to a PM with concrete unit placements.

    ``assignments[i] = (pm_index, placement)`` encodes ``x_ij = 1`` plus
    the full ``y``/``z`` detail via the placement's per-group
    (unit, chunk) pairs.
    """

    assignments: Tuple[Tuple[int, Placement], ...]

    def open_pms(self) -> List[int]:
        """Indices of PMs hosting at least one VM (``o_j = 1``)."""
        return sorted({pm for pm, _ in self.assignments})

    def total_cost(self, instance: PlacementInstance) -> float:
        """Objective (11): the summed fixed cost of open PMs."""
        return sum(instance.cost_of(j) for j in self.open_pms())


def verify_constraints(
    instance: PlacementInstance, solution: PlacementSolution
) -> List[str]:
    """Check constraints (1)-(10); returns human-readable violations.

    An empty list means the solution is feasible.  The actual checking
    lives in :func:`repro.analysis.invariants.audit_solution`, which
    reports *structured* violations with constraint ids; this wrapper
    keeps the original string-list oracle API.
    """
    from repro.analysis.invariants import audit_solution

    return [str(v) for v in audit_solution(instance, solution).violations]


def solution_from_policy(
    instance: PlacementInstance, policy: PlacementPolicy
) -> Optional[PlacementSolution]:
    """Solve an instance with a heuristic placement policy.

    Returns None when the policy fails to place some VM (the paper's
    "no solution" branch of Algorithm 2).  Used to measure heuristic
    optimality gaps against :class:`repro.model.branch_bound.BranchAndBound`.
    """
    from repro.cluster.vm import VirtualMachine
    from repro.core.soa import SoADatacenter

    datacenter = SoADatacenter(
        [(j, shape, f"pm{j}") for j, shape in enumerate(instance.pms)]
    )
    assignments: Dict[int, Tuple[int, Placement]] = {}
    requests = [
        VirtualMachine(vm_id=i, vm_type=vm) for i, vm in enumerate(instance.vms)
    ]
    for vm in policy.order_vms(requests):
        decision = policy.select(vm.vm_type, datacenter.machines)
        if decision is None:
            return None
        datacenter.apply(vm, decision)
        assignments[vm.vm_id] = (decision.pm_id, decision.placement)
    ordered = tuple(assignments[i] for i in range(len(instance.vms)))
    return PlacementSolution(assignments=ordered)
