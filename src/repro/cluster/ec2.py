"""Amazon EC2 catalogs: Table I (VM types) and Table II (PM types).

Fixed-point quanta: CPU 0.1 GHz, memory 0.25 GiB, disk 1 GB — every
demand and capacity in the paper's tables is an exact multiple, so no
rounding distortion enters the profiles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.cluster.datacenter import Datacenter
from repro.cluster.machine import PhysicalMachine
from repro.core.profile import MachineShape, Quantizer, ResourceGroup, VMType
from repro.util.validation import require

if TYPE_CHECKING:
    from repro.core.soa import SoADatacenter

__all__ = [
    "CPU_QUANTUM_GHZ",
    "MEM_QUANTUM_GIB",
    "DISK_QUANTUM_GB",
    "EC2_VM_SPECS",
    "EC2_PM_SPECS",
    "EC2_VM_TYPES",
    "EC2_PM_TYPES",
    "ec2_vm_type",
    "ec2_pm_shape",
    "build_ec2_datacenter",
    "build_ec2_object_datacenter",
    "build_ec2_soa_datacenter",
]

CPU_QUANTUM_GHZ = 0.1
MEM_QUANTUM_GIB = 0.25
DISK_QUANTUM_GB = 1.0

_CPU = Quantizer(CPU_QUANTUM_GHZ)
_MEM = Quantizer(MEM_QUANTUM_GIB)
_DISK = Quantizer(DISK_QUANTUM_GB)

# Table I: (vcpu count, GHz each, memory GiB, disk count, GB each).
EC2_VM_SPECS: Dict[str, Tuple[int, float, float, int, float]] = {
    "m3.medium": (1, 0.6, 3.75, 1, 4.0),
    "m3.large": (2, 0.6, 7.5, 1, 32.0),
    "m3.xlarge": (4, 0.6, 15.0, 2, 40.0),
    "m3.2xlarge": (8, 0.6, 30.0, 2, 80.0),
    "c3.large": (2, 0.7, 3.75, 2, 16.0),
    "c3.xlarge": (4, 0.7, 7.5, 2, 40.0),
}

# Table II: (core count, GHz each, memory GiB, disk count, GB each).
EC2_PM_SPECS: Dict[str, Tuple[int, float, float, int, float]] = {
    "M3": (8, 2.6, 64.0, 4, 250.0),
    "C3": (8, 2.8, 7.5, 4, 250.0),
}


def ec2_vm_type(name: str) -> VMType:
    """The Table I VM type in fixed-point units.

    Raises:
        KeyError: for names outside Table I.
    """
    spec = EC2_VM_SPECS.get(name)
    if spec is None:
        raise KeyError(
            f"unknown EC2 VM type {name!r}; known: {sorted(EC2_VM_SPECS)}"
        )
    n_vcpu, ghz, mem_gib, n_disk, disk_gb = spec
    return VMType(
        name=name,
        demands=(
            tuple(_CPU.to_units(ghz) for _ in range(n_vcpu)),
            (_MEM.to_units(mem_gib),),
            tuple(_DISK.to_units(disk_gb) for _ in range(n_disk)),
        ),
    )


def ec2_pm_shape(name: str) -> MachineShape:
    """The Table II PM shape in fixed-point units.

    Each physical core and each physical disk is its own dimension
    (anti-collocation groups); memory is a scalar group.

    Raises:
        KeyError: for names outside Table II.
    """
    spec = EC2_PM_SPECS.get(name)
    if spec is None:
        raise KeyError(
            f"unknown EC2 PM type {name!r}; known: {sorted(EC2_PM_SPECS)}"
        )
    n_core, ghz, mem_gib, n_disk, disk_gb = spec
    return MachineShape(
        groups=(
            ResourceGroup(
                name="cpu",
                capacities=tuple(_CPU.to_units(ghz) for _ in range(n_core)),
            ),
            ResourceGroup(
                name="mem",
                capacities=(_MEM.to_units(mem_gib),),
                anti_collocation=False,
            ),
            ResourceGroup(
                name="disk",
                capacities=tuple(_DISK.to_units(disk_gb) for _ in range(n_disk)),
            ),
        )
    )


#: All Table I VM types, in table order.
EC2_VM_TYPES: List[VMType] = [ec2_vm_type(name) for name in EC2_VM_SPECS]

#: All Table II PM shapes, keyed by type name.
EC2_PM_TYPES: Dict[str, MachineShape] = {
    name: ec2_pm_shape(name) for name in EC2_PM_SPECS
}


def build_ec2_datacenter(
    counts: Mapping[str, int], shard_size: Optional[int] = None
) -> "SoADatacenter":
    """A columnar (struct-of-arrays) datacenter of Table II machines.

    This is the fleet every experiment cell, the scale sweep and the
    placement service run on (:class:`repro.core.soa.SoADatacenter`).
    PMs get ids ``0..n-1`` in ``counts`` order, as in
    :func:`build_ec2_object_datacenter`.

    Args:
        counts: PM type name -> how many (e.g. ``{"M3": 400, "C3": 100}``).
        shard_size: rows per columnar shard (None: ``DEFAULT_SHARD_SIZE``).
    """
    # Imported here: repro.core.soa imports repro.cluster modules.
    from repro.core.soa import DEFAULT_SHARD_SIZE, SoADatacenter

    return SoADatacenter(
        _fleet_specs(counts),
        shard_size=DEFAULT_SHARD_SIZE if shard_size is None else shard_size,
    )


#: The same builder, for callers that name the substrate (``serve.fleet``,
#: the ``perfbench`` workloads).
build_ec2_soa_datacenter = build_ec2_datacenter


def build_ec2_object_datacenter(counts: Mapping[str, int]) -> Datacenter:
    """The same fleet on the object substrate (one PhysicalMachine per PM).

    A reference only: the sweep's identity twin and scan anchor and the
    sanitizer's object legs compare the columnar fleet against it.

    Args:
        counts: PM type name -> how many.
    """
    return Datacenter([
        PhysicalMachine(pm_id, shape, type_name=name)
        for pm_id, shape, name in _fleet_specs(counts)
    ])


def _fleet_specs(counts: Mapping[str, int]) -> List[Tuple[int, MachineShape, str]]:
    """``(pm_id, shape, type name)`` per PM, ids dense in ``counts`` order."""
    require(len(counts) > 0, "counts must not be empty")
    specs: List[Tuple[int, MachineShape, str]] = []
    for name, count in counts.items():
        require(count >= 0, f"count for {name!r} must be non-negative")
        shape = ec2_pm_shape(name)
        for _ in range(count):
            specs.append((len(specs), shape, name))
    return specs
