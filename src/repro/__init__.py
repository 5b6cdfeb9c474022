"""Morpheus reproduction: extending GPU LLC capacity with idle GPU core resources.

This package reproduces "Morpheus: Extending the Last Level Cache Capacity in
GPU Systems Using Idle GPU Core Resources" (MICRO 2022) as a trace-driven,
cycle-approximate Python model.  The most commonly used entry points are
re-exported here:

* :class:`repro.gpu.config.GPUConfig` / :data:`repro.gpu.config.RTX3080_CONFIG`
  — the baseline GPU (Table 1).
* :class:`repro.core.config.MorpheusConfig` — the Morpheus design knobs.
* :class:`repro.sim.simulator.GPUSimulator` / :class:`repro.sim.simulator.SimulationConfig`
  — simulate one application on one configuration.
* :func:`repro.systems.registry.evaluate_application` — run one of the nine
  evaluated systems (BL, IBL, IBL-4X-LLC, Unified-SM-Mem, Frequency-Boost and
  the four Morpheus variants) on one of the 17 applications.
* :data:`repro.workloads.applications.APPLICATIONS` — the workload models.
"""

from repro.core.config import MorpheusConfig
from repro.runner import ExperimentRunner, ExperimentSpec, active_runner
from repro.gpu.config import GPUConfig, RTX3080_CONFIG
from repro.sim.simulator import GPUSimulator, SimulationConfig, simulate
from repro.sim.stats import SimulationStats
from repro.systems.registry import (
    EVALUATED_SYSTEMS,
    evaluate_application,
    get_system,
)
from repro.workloads.applications import (
    APPLICATIONS,
    COMPUTE_BOUND_APPS,
    MEMORY_BOUND_APPS,
    get_application,
)

__version__ = "1.0.0"

__all__ = [
    "APPLICATIONS",
    "COMPUTE_BOUND_APPS",
    "EVALUATED_SYSTEMS",
    "ExperimentRunner",
    "ExperimentSpec",
    "active_runner",
    "GPUConfig",
    "GPUSimulator",
    "MEMORY_BOUND_APPS",
    "MorpheusConfig",
    "RTX3080_CONFIG",
    "SimulationConfig",
    "SimulationStats",
    "evaluate_application",
    "get_application",
    "get_system",
    "simulate",
    "__version__",
]
