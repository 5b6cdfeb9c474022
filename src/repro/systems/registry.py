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


def get_system(
    name: str,
    gpu: GPUConfig = RTX3080_CONFIG,
    fidelity: Fidelity = STANDARD_FIDELITY,
    seed: int = 1,
    predictor: str | None = None,
) -> EvaluatedSystem:
    """Construct an evaluated system by its Figure-12 name.

    Systems are cheap to construct; the expensive part — their simulations —
    is cached by the runner, so no instance memoization is needed.

    ``predictor`` overrides the hit/miss-predictor flavour of a Morpheus
    system (the declarative form of the ``"Morpheus-Basic(<predictor>)"``
    name syntax, used by the :class:`~repro.runner.spec.ExperimentSpec`
    predictor axis).  Non-Morpheus systems have no predictor to override.
    """
    if predictor is not None:
        variant = {v.value: v for v in MorpheusVariant}.get(name)
        if variant is None:
            raise ValueError(
                f"system {name!r} has no hit/miss predictor to override"
            )
        return MorpheusSystem(variant, gpu, fidelity, predictor=predictor, seed=seed)
    if name == "BL":
        system: EvaluatedSystem = BaselineSystem(gpu, fidelity, seed=seed)
    elif name == "IBL":
        system = ImprovedBaselineSystem(gpu, fidelity, seed=seed)
    elif name == "IBL-4X-LLC":
        system = IBL4xLLCSystem(gpu, fidelity, seed=seed)
    elif name == "IBL-2X-LLC":
        system = IBL4xLLCSystem(gpu, fidelity, scale_factor=2.0, seed=seed)
        system.name = "IBL-2X-LLC"
    elif name == "Unified-SM-Mem":
        system = UnifiedSMMemSystem(gpu, fidelity, seed=seed)
    elif name == "Frequency-Boost":
        system = FrequencyBoostSystem(gpu, fidelity, seed=seed)
    elif name == "Morpheus-Basic":
        system = MorpheusSystem(MorpheusVariant.BASIC, gpu, fidelity, seed=seed)
    elif name == "Morpheus-Compression":
        system = MorpheusSystem(MorpheusVariant.COMPRESSION, gpu, fidelity, seed=seed)
    elif name == "Morpheus-Indirect-MOV":
        system = MorpheusSystem(MorpheusVariant.INDIRECT_MOV, gpu, fidelity, seed=seed)
    elif name == "Morpheus-ALL":
        system = MorpheusSystem(MorpheusVariant.ALL, gpu, fidelity, seed=seed)
    elif name.startswith("Morpheus-Basic(") and name.endswith(")"):
        predictor = name[len("Morpheus-Basic("):-1]
        system = MorpheusSystem(
            MorpheusVariant.BASIC, gpu, fidelity, predictor=predictor, seed=seed
        )
    else:
        valid = ", ".join(EVALUATED_SYSTEMS)
        raise ValueError(f"unknown system {name!r}; expected one of: {valid}")
    return system


def evaluate_application(
    system_name: str,
    application: str | ApplicationProfile,
    gpu: GPUConfig = RTX3080_CONFIG,
    fidelity: Fidelity = STANDARD_FIDELITY,
    use_cache: bool = True,
    seed: int = 1,
    predictor: str | None = None,
) -> SimulationStats:
    """Simulate one application on one named system (runner-cached).

    With ``use_cache=False`` the underlying leaf simulations are recomputed
    (and the cache refreshed) instead of being served from it.  ``predictor``
    overrides a Morpheus system's hit/miss predictor (see :func:`get_system`).
    """
    from repro.runner.runner import active_runner

    profile = application if isinstance(application, ApplicationProfile) else get_application(application)
    system = get_system(system_name, gpu, fidelity, seed=seed, predictor=predictor)
    if use_cache:
        return system.evaluate(profile)
    with active_runner().cache_bypassed():
        return system.evaluate(profile)

