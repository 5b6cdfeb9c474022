"""Cycle-approximate, trace-driven GPU simulation."""

from repro.core.controller import HierarchyCounters
from repro.sim.engine import MemoryHierarchyEngine
from repro.sim.performance_model import (
    DEFAULT_ENVELOPE,
    PerformanceModel,
    ReplayMeasurement,
    ResourceEnvelope,
    shared_bandwidth_capacities,
    shared_bandwidth_demand,
)
from repro.sim.simulator import GPUSimulator, SimulationConfig
from repro.sim.stats import SimulationStats

__all__ = [
    "DEFAULT_ENVELOPE",
    "GPUSimulator",
    "HierarchyCounters",
    "MemoryHierarchyEngine",
    "PerformanceModel",
    "ReplayMeasurement",
    "ResourceEnvelope",
    "SimulationConfig",
    "SimulationStats",
    "shared_bandwidth_capacities",
    "shared_bandwidth_demand",
]
