"""Streaming scenario aggregation: bit-identity with the list-based reductions."""

from __future__ import annotations

import pytest

from repro.analysis.scenarios import (
    ScenarioAccumulator,
    per_app_timelines,
    phase_slowdowns,
    scenario_energy_j,
    slowdown_stats,
    time_weighted_ipc,
    transition_overheads,
    weighted_percentile,
)
from repro.runner import ExperimentRunner
from repro.scenarios import SCENARIO_LIBRARY, ScenarioEngine, get_scenario
from fidelity_utils import TINY_FIDELITY

SYSTEM = "Morpheus-Basic"
SHAPES = sorted(name for name in SCENARIO_LIBRARY if name != "diurnal")
SHAPE_KWARGS = {"fleet": {"num_phases": 60, "seed": 2}}


def run_shape(tmp_path, name):
    scenario = get_scenario(name, **SHAPE_KWARGS.get(name, {}))
    runner = ExperimentRunner(cache_dir=tmp_path / f"cache-{name}", max_workers=0)
    engine = ScenarioEngine(runner=runner, fidelity=TINY_FIDELITY)
    return engine.run(scenario, SYSTEM)


class TestWeightedPercentile:
    def test_nearest_rank_on_unit_weights(self):
        pairs = [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0)]
        assert weighted_percentile(pairs, 0.25) == 1.0
        assert weighted_percentile(pairs, 0.50) == 2.0
        assert weighted_percentile(pairs, 1.00) == 4.0

    def test_weights_shift_the_rank(self):
        pairs = [(1.0, 3.0), (10.0, 1.0)]
        assert weighted_percentile(pairs, 0.75) == 1.0
        assert weighted_percentile(pairs, 0.90) == 10.0

    def test_mapping_and_raw_pairs_agree(self):
        pairs = [(2.0, 1.0), (1.0, 0.5), (2.0, 1.0), (3.0, 0.25)]
        grouped = {1.0: 0.5, 2.0: 2.0, 3.0: 0.25}
        for fraction in (0.1, 0.5, 0.9, 0.99, 1.0):
            assert weighted_percentile(pairs, fraction) == weighted_percentile(
                grouped, fraction
            )

    def test_empty_pairs_yield_zero(self):
        assert weighted_percentile([], 0.5) == 0.0

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_rejects_bad_fractions(self, fraction):
        with pytest.raises(ValueError):
            weighted_percentile([(1.0, 1.0)], fraction)


class TestSlowdownStats:
    def test_folds_pairs(self):
        stats = slowdown_stats("spmv", [(1.0, 2.0), (1.5, 1.0), (4.0, 1.0)])
        assert stats.application == "spmv"
        assert stats.weight == 4.0
        assert stats.p50 == 1.0
        assert stats.max == 4.0
        assert stats.p99 == 4.0


class TestAccumulatorBitIdentity:
    @pytest.mark.parametrize("name", SHAPES)
    def test_matches_list_based_reductions_on_every_shape(self, tmp_path, name):
        result = run_shape(tmp_path, name)
        aggregates = ScenarioAccumulator.from_result(result).aggregates()

        assert aggregates.phases == len(result.phases)
        assert aggregates.total_instructions == result.total_instructions
        assert aggregates.compute_cycles == result.compute_cycles
        assert aggregates.transition_cycles == result.transition_cycles
        assert aggregates.total_cycles == result.total_cycles
        assert aggregates.time_weighted_ipc == time_weighted_ipc(result)
        assert aggregates.energy_j == scenario_energy_j(result)
        assert aggregates.transitions == transition_overheads(result)
        assert aggregates.timelines == per_app_timelines(result)
        assert aggregates.slowdowns == {
            application: slowdown_stats(application, pairs)
            for application, pairs in phase_slowdowns(result).items()
        }

    def test_incremental_add_equals_from_result(self, tmp_path):
        result = run_shape(tmp_path, "bursty")
        accumulator = ScenarioAccumulator(result.scenario)
        for execution in result.phases:
            accumulator.add(execution)
        assert (
            accumulator.aggregates()
            == ScenarioAccumulator.from_result(result).aggregates()
        )

    def test_reference_ipc_drives_the_slowdowns(self, tmp_path):
        result = run_shape(tmp_path, "corun_pair")
        references = {name: 2.0 for name in result.scenario.applications}
        aggregates = ScenarioAccumulator.from_result(
            result, reference_ipc=references
        ).aggregates()
        assert aggregates.slowdowns == {
            application: slowdown_stats(application, pairs)
            for application, pairs in phase_slowdowns(
                result, reference_ipc=references
            ).items()
        }
        # Every other aggregate ignores the reference.
        plain = ScenarioAccumulator.from_result(result).aggregates()
        assert aggregates.time_weighted_ipc == plain.time_weighted_ipc
        assert aggregates.energy_j == plain.energy_j
        assert aggregates.timelines == plain.timelines
