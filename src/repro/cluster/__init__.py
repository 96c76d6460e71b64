"""CloudSim-like datacenter substrate (paper Section VI.A, simulation).

The paper evaluates on CloudSim; this package is the equivalent
substrate built from scratch: physical machines with per-core/per-disk
accounting, VM instances driven by utilization traces, a discrete-event
kernel, a periodic utilization monitor with overload-triggered
migration, the Table III energy model, and SLATAH-style SLO accounting.
"""

from repro.cluster.vm import VirtualMachine
from repro.cluster.allocation import Allocation
from repro.cluster.machine import PhysicalMachine
from repro.cluster.datacenter import Datacenter
from repro.cluster.events import EventLoop
from repro.cluster.energy import (
    E5_2670,
    E5_2680,
    EnergyMeter,
    PowerModel,
    power_model_for,
)
from repro.cluster.slo import SLOTracker
from repro.cluster.monitor import MachineSnapshot, UtilizationMonitor
from repro.cluster.simulation import (
    CloudSimulation,
    SimulationConfig,
    SimulationResult,
)
from repro.cluster.ec2 import (
    EC2_PM_TYPES,
    EC2_VM_TYPES,
    build_ec2_datacenter,
    build_ec2_object_datacenter,
    build_ec2_soa_datacenter,
    ec2_pm_shape,
    ec2_vm_type,
)

__all__ = [
    "VirtualMachine",
    "Allocation",
    "PhysicalMachine",
    "Datacenter",
    "EventLoop",
    "PowerModel",
    "EnergyMeter",
    "E5_2670",
    "E5_2680",
    "power_model_for",
    "SLOTracker",
    "MachineSnapshot",
    "UtilizationMonitor",
    "SimulationConfig",
    "SimulationResult",
    "CloudSimulation",
    "EC2_VM_TYPES",
    "EC2_PM_TYPES",
    "ec2_vm_type",
    "ec2_pm_shape",
    "build_ec2_datacenter",
    "build_ec2_object_datacenter",
    "build_ec2_soa_datacenter",
]
