"""The nine evaluated systems (§6) and helpers to run them."""

from repro.systems.baseline import (
    BaselineSystem,
    FrequencyBoostSystem,
    IBL4xLLCSystem,
    ImprovedBaselineSystem,
    UnifiedSMMemSystem,
)
from repro.systems.morpheus_system import MorpheusSystem, MorpheusVariant
from repro.systems.registry import (
    EVALUATED_SYSTEMS,
    SCENARIO_SYSTEMS,
    EvaluatedSystem,
    evaluate_application,
    get_system,
)

__all__ = [
    "BaselineSystem",
    "EVALUATED_SYSTEMS",
    "EvaluatedSystem",
    "FrequencyBoostSystem",
    "IBL4xLLCSystem",
    "ImprovedBaselineSystem",
    "MorpheusSystem",
    "MorpheusVariant",
    "SCENARIO_SYSTEMS",
    "UnifiedSMMemSystem",
    "evaluate_application",
    "get_system",
]
