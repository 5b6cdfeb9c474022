"""Phase-signature dedup at fleet scale.

Thousands of phases collapse to tens of signatures, every phase is
accounted for by the dedup counters, and a warm re-run touches exactly one
scenario-tier payload.  The per-shape executions themselves are pinned by
the golden scenario fixtures (``test_golden_scenarios.py``).
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.runner import ExperimentRunner
from repro.scenarios import (
    SCENARIO_LIBRARY,
    SCENARIO_SYSTEMS,
    ScenarioEngine,
    fleet,
    get_scenario,
)
from repro.telemetry import Telemetry
from repro.telemetry.report import summarize
from scenario_test_utils import TINY_FIDELITY

SYSTEM = "Morpheus-Basic"
SHAPES = sorted(name for name in SCENARIO_LIBRARY if name != "diurnal")
SHAPE_KWARGS = {"fleet": {"num_phases": 60, "seed": 2}}


def engine_for(tmp_path, subdir):
    runner = ExperimentRunner(cache_dir=tmp_path / subdir, max_workers=0)
    return ScenarioEngine(runner=runner, fidelity=TINY_FIDELITY)


def snapshot(result) -> list:
    """A comparable rendering of one timeline run (stats + cycle accounting)."""
    return [
        (
            execution.index,
            dataclasses.asdict(execution.phase),
            dataclasses.asdict(execution.decision),
            [dataclasses.asdict(resident) for resident in execution.residents],
            execution.instructions,
            execution.compute_cycles,
        )
        for execution in result.phases
    ]


class TestFleetScale:
    def test_5k_phase_fleet_dedups_and_reloads_one_payload(self, tmp_path):
        scenario = fleet(num_phases=5000, seed=7)
        trace_dir = tmp_path / "trace"
        with Telemetry(directory=trace_dir, enabled=True):
            cold_engine = engine_for(tmp_path, "cache")
            cold = cold_engine.run(scenario, SYSTEM)
            warm_engine = engine_for(tmp_path, "cache")
            warm = warm_engine.run(scenario, SYSTEM)

        # Thousands of phases, tens of signatures.
        signatures = len(cold.signatures)
        assert 0 < signatures < 100
        assert cold.dedup_hits == 5000 - signatures
        assert len(cold.phases) == 5000

        # Warm: zero replay-tier traffic, exactly one scenario-tier payload.
        warm_cache = warm_engine.runner.disk_cache
        assert warm_engine.runner.replays == 0
        assert warm_cache.replay_misses == 0
        assert warm_cache.tier_counters()["scenario_hits"] == 1
        assert len(warm.signatures) == signatures
        assert snapshot(warm) == snapshot(cold)

        # Only the cold pass lowers phases, and its counters account for
        # every one of them.
        counters = summarize(trace_dir)["counters"]
        assert counters["scenario.dedup.hits"] == cold.dedup_hits
        assert counters["scenario.dedup.misses"] == signatures
        histograms = summarize(trace_dir)["histograms"]
        assert histograms["scenario.signature_solve_seconds"]["count"] > 0


class TestPhaseIds:
    @pytest.mark.parametrize("name", SHAPES)
    @pytest.mark.parametrize("system", SCENARIO_SYSTEMS)
    def test_phase_ids_rebuild_every_phase_cold_and_warm(self, tmp_path, system, name):
        scenario = get_scenario(name, **SHAPE_KWARGS.get(name, {}))
        cold = engine_for(tmp_path, "cache").run(scenario, system)
        warm_engine = engine_for(tmp_path, "cache")
        warm = warm_engine.run(dataclasses.replace(scenario), system)
        assert warm_engine.runner.disk_cache.scenario_hits == 1

        for result in (cold, warm):
            ids = list(result.phases.phase_ids)
            assert len(ids) == len(result.phases) == len(scenario.phases)
            # Each signature's count is the number of phases bearing its id.
            assert Counter(signature for signature, _ in ids) == {
                index: execution.count
                for index, execution in enumerate(result.signatures)
            }
            transitions = result.phases.transitions
            assert {transition for _, transition in ids} == set(range(len(transitions)))
            for index, (signature, transition) in enumerate(ids):
                phase = result.phases[index]
                execution = result.signatures[signature]
                assert phase.phase == scenario.phases[index]
                assert phase.residents == execution.residents
                assert phase.instructions == execution.instructions
                assert phase.compute_cycles == execution.compute_cycles
                assert phase.decision.split == execution.signature.split
                assert phase.decision.grants == execution.signature.grants
                assert phase.decision.transition == transitions[transition]

        # The warm path stores and reloads the same ids, not a re-derivation.
        assert list(warm.phases.phase_ids) == list(cold.phases.phase_ids)
        assert warm.phases.transitions == cold.phases.transitions
        assert snapshot(warm) == snapshot(cold)
