"""Registry of the nine evaluated systems and runner-backed evaluation helpers.

Running a full Figure-12-style comparison means simulating 17 applications on
nine systems, several of which search per-application operating points.  All
of that work flows through the process-wide
:class:`~repro.runner.runner.ExperimentRunner`, whose two-tier
content-addressed on-disk cache replaces the fragile per-process memo dicts
this module used to keep: every leaf simulation (including the runs behind a
best-SM-count search) stores its replay measurement under a replay key and
its scored stats under a score key, shared between processes and between
figures that overlap (e.g. Fig. 12 top and bottom, Table 3).  Re-running a
search under different analytic parameters (MLP, peak IPC, energy constants)
re-scores the cached measurements without replaying a single trace.
"""

from __future__ import annotations

from repro.gpu.config import GPUConfig, RTX3080_CONFIG
from repro.sim.stats import SimulationStats
from repro.systems.baseline import (
    BaselineSystem,
    EvaluatedSystem,
    FrequencyBoostSystem,
    IBL4xLLCSystem,
    ImprovedBaselineSystem,
    UnifiedSMMemSystem,
)
from repro.systems.fidelity import Fidelity, STANDARD_FIDELITY
from repro.systems.morpheus_system import MorpheusSystem, MorpheusVariant
from repro.workloads.applications import ApplicationProfile, get_application

#: Names of the nine systems of Figure 12, in presentation order.
EVALUATED_SYSTEMS: tuple[str, ...] = (
    "BL",
    "IBL",
    "IBL-4X-LLC",
    "Unified-SM-Mem",
    "Frequency-Boost",
    "Morpheus-Basic",
    "Morpheus-Compression",
    "Morpheus-Indirect-MOV",
    "Morpheus-ALL",
)

#: Systems that can run under a workload timeline (the two baselines plus
#: all four Morpheus variants) — see :mod:`repro.scenarios`.
SCENARIO_SYSTEMS: tuple[str, ...] = (
    "BL",
    "IBL",
    "Morpheus-Basic",
    "Morpheus-Compression",
    "Morpheus-Indirect-MOV",
    "Morpheus-ALL",
)

#: The five non-Morpheus systems by name.
_BASELINE_SYSTEMS: dict[str, type[EvaluatedSystem]] = {
    "BL": BaselineSystem,
    "IBL": ImprovedBaselineSystem,
    "IBL-4X-LLC": IBL4xLLCSystem,
    "Unified-SM-Mem": UnifiedSMMemSystem,
    "Frequency-Boost": FrequencyBoostSystem,
}

#: The four Morpheus variants by name.
MORPHEUS_VARIANTS: dict[str, MorpheusVariant] = {
    variant.value: variant for variant in MorpheusVariant
}


def get_system(
    name: str,
    gpu: GPUConfig = RTX3080_CONFIG,
    fidelity: Fidelity = STANDARD_FIDELITY,
    seed: int = 1,
) -> EvaluatedSystem:
    """Construct an evaluated system by its Figure-12 name.

    A Morpheus variant's name may end in ``(<predictor>)`` to pick its
    hit/miss predictor, as in ``"Morpheus-Basic(none)"`` (the Figure 13
    form); without the suffix it runs the Bloom predictor.  So every name a
    :class:`MorpheusSystem` gives itself resolves to its variant and
    predictor.

    Systems are cheap to construct; the expensive part — their simulations —
    is cached by the runner, so no instance memoization is needed.
    """
    baseline = _BASELINE_SYSTEMS.get(name)
    if baseline is not None:
        return baseline(gpu, fidelity, seed=seed)
    variant_name, paren, suffix = name.partition("(")
    variant = MORPHEUS_VARIANTS.get(variant_name)
    if variant is not None and (not paren or suffix.endswith(")")):
        predictor = suffix[:-1] if paren else "bloom"
        return MorpheusSystem(variant, gpu, fidelity, predictor=predictor, seed=seed)
    valid = ", ".join(EVALUATED_SYSTEMS)
    raise ValueError(f"unknown system {name!r}; expected one of: {valid}")


def evaluate_application(
    system_name: str,
    application: str | ApplicationProfile,
    gpu: GPUConfig = RTX3080_CONFIG,
    fidelity: Fidelity = STANDARD_FIDELITY,
    seed: int = 1,
) -> SimulationStats:
    """Simulate one application on one named system (runner-cached)."""
    profile = application if isinstance(application, ApplicationProfile) else get_application(application)
    return get_system(system_name, gpu, fidelity, seed=seed).evaluate(profile)
