"""Solo references from one lowering against the per-phase loop they replaced.

``ScenarioEngine.solo_reference_ipcs`` lowers each application's solo
timeline through ``ScenarioEngine.lower``, once per distinct solo
signature, and sums each reference over the solo phases in timeline order.
The loop it replaced planned each solo timeline and lowered every solo
phase on its own; that loop is kept here as the reference.  On every
library shape but the fleet (plus three fleet seeds at 300 phases), on two
baselines and two Morpheus variants under three policies, the references
must be equal bit for bit (floats compared by ``repr``, which tells
``-0.0`` from ``0.0`` and round-trips every other float), and on cold
caches both must replay the same number of leaves.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

from repro.runner import ExperimentRunner
from repro.scenarios import (
    SCENARIO_LIBRARY,
    DynamicCapacityManager,
    FixedSplitPolicy,
    ScenarioEngine,
    ScenarioPhase,
    ScenarioSpec,
    fleet,
    get_scenario,
)
from repro.workloads.applications import get_application
from scenario_test_utils import TINY_FIDELITY

SHAPES = sorted(name for name in SCENARIO_LIBRARY if name not in ("fleet", "diurnal"))
SYSTEMS = ("BL", "IBL", "Morpheus-Basic", "Morpheus-ALL")
POLICIES = {
    "default": None,
    "static": FixedSplitPolicy(),
    "dynamic-h2-sensitivity": DynamicCapacityManager(
        hysteresis_sms=2, arbitration="sensitivity"
    ),
}
CASES = [
    (shape, system, policy)
    for shape in SHAPES
    for system in SYSTEMS
    for policy in POLICIES
] + [(f"fleet-seed{seed}", "Morpheus-Basic", "default") for seed in (1, 2, 3)]


def _scenario(shape: str) -> ScenarioSpec:
    if shape.startswith("fleet-seed"):
        return fleet(num_phases=300, seed=int(shape[len("fleet-seed"):]))
    return get_scenario(shape)


# -- the reference: every solo phase planned and lowered on its own ----------------


def reference_solo_ipcs(
    engine: ScenarioEngine, scenario: ScenarioSpec, system: str, policy
) -> Dict[str, float]:
    """The solo references as the per-phase loop computed them."""
    unique: List[tuple] = []
    leaf_index: Dict[tuple, int] = {}
    per_app: Dict[str, List[Tuple[float, int]]] = {}
    for application in scenario.applications:
        phases = tuple(
            ScenarioPhase(
                application=application,
                compute_sm_demand=next(
                    residency.compute_sm_demand
                    for residency in phase.residents
                    if residency.application == application
                ),
                duration_weight=phase.duration_weight,
                label=phase.label,
            )
            for phase in scenario.phases
            if application in phase.applications
        )
        solo = ScenarioSpec(
            name=f"{scenario.name}:{application}-solo",
            phases=phases,
            instructions_per_weight=scenario.instructions_per_weight,
        )
        profiles = {application: get_application(application)}
        decisions, morpheus = engine._plan(solo, system, policy, profiles)
        entries: List[Tuple[float, int]] = []
        for phase, decision in zip(solo.phases, decisions):
            (grant,) = decision.grants
            assert grant.application == application
            key = (application, engine._leaf_config(grant, morpheus, system))
            index = leaf_index.get(key)
            if index is None:
                index = len(unique)
                leaf_index[key] = index
                unique.append(key)
            entries.append((phase.duration_weight, index))
        per_app[application] = entries
    batch = engine.runner.run_leaves(
        [(get_application(application), config) for application, config in unique]
    )
    references = {}
    for application, entries in per_app.items():
        total_weight = sum(weight for weight, _ in entries)
        references[application] = (
            sum(weight * batch[index].ipc for weight, index in entries) / total_weight
            if total_weight > 0
            else 0.0
        )
    return references


@pytest.mark.parametrize("shape, system, policy", CASES)
def test_solo_references_match_the_per_phase_loop(tmp_path, shape, system, policy):
    scenario = _scenario(shape)
    reference_runner = ExperimentRunner(cache_dir=tmp_path / "reference", max_workers=0)
    expected = reference_solo_ipcs(
        ScenarioEngine(runner=reference_runner, fidelity=TINY_FIDELITY),
        scenario,
        system,
        POLICIES[policy],
    )
    runner = ExperimentRunner(cache_dir=tmp_path / "engine", max_workers=0)
    engine = ScenarioEngine(runner=runner, fidelity=TINY_FIDELITY)
    references = engine.solo_reference_ipcs(scenario, system, POLICIES[policy])

    assert list(references) == list(scenario.applications)
    assert {name: repr(value) for name, value in references.items()} == {
        name: repr(value) for name, value in expected.items()
    }
    assert reference_runner.replays > 0
    assert runner.replays == reference_runner.replays
