"""Determinism and warm-cache contracts of scenario execution.

Satellite coverage for the two scenario acceptance properties: serial and
parallel timeline runs are bit-identical, and a warm re-run of a
repeated-phase timeline is served entirely from the measurement cache
(zero replay-tier misses, zero replays).
"""

from __future__ import annotations

import dataclasses

from repro.runner import ExperimentRunner, using_runner
from repro.scenarios import ScenarioEngine, bursty, corun_pair
from scenario_test_utils import TINY_FIDELITY


def _snapshot(result):
    """A comparable rendering of one timeline run."""
    return [
        (
            execution.index,
            dataclasses.asdict(execution.stats),
            dataclasses.asdict(execution.decision.transition),
            dataclasses.asdict(execution.decision.split),
            execution.instructions,
            execution.compute_cycles,
        )
        for execution in result.phases
    ]


def _run(cache_dir, max_workers: int, scenario, system="Morpheus-Basic"):
    runner = ExperimentRunner(cache_dir=cache_dir, max_workers=max_workers)
    engine = ScenarioEngine(runner=runner, fidelity=TINY_FIDELITY)
    with using_runner(runner):
        result = engine.run(scenario, system)
    return runner, result


class TestScenarioDeterminism:
    def test_serial_and_parallel_runs_are_bit_identical(self, tmp_path):
        # A co-run timeline exercises multiple applications and configs, so
        # the parallel path actually fans replays out to workers — in one
        # cross-application batch (run_leaves), not per-profile groups.
        scenario = corun_pair(rounds=2)
        serial_runner, serial = _run(tmp_path / "serial", 0, scenario)
        parallel_runner, parallel = _run(tmp_path / "parallel", 2, scenario)
        assert _snapshot(serial) == _snapshot(parallel)
        assert serial.run_key == parallel.run_key
        # Both executions replayed each distinct (application, config) leaf
        # exactly once.
        assert serial_runner.replays == parallel_runner.replays == 2

    def test_warm_rerun_has_zero_replay_tier_misses(self, tmp_path):
        # The bursty timeline repeats its lull/burst phases; the warm pass
        # must be served entirely from the measurement + stats tiers.
        scenario = bursty(bursts=2)
        cold_runner, cold = _run(tmp_path / "cache", 0, scenario)
        assert cold_runner.replays == 2  # two distinct splits, five phases

        warm_runner, warm = _run(tmp_path / "cache", 0, scenario)
        assert warm_runner.replays == 0
        assert warm_runner.disk_cache.replay_misses == 0
        assert warm_runner.disk_cache.misses == 0
        assert _snapshot(cold) == _snapshot(warm)

    def test_rescoring_scenario_leaves_never_replays(self, tmp_path):
        # An analytic re-score of a scenario (fresh runner, different MLP)
        # hits the measurement tier for every phase leaf: zero replays.
        import dataclasses as dc

        scenario = bursty(bursts=1)
        _run(tmp_path / "cache", 0, scenario)
        runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
        engine = ScenarioEngine(runner=runner, fidelity=TINY_FIDELITY)
        with using_runner(runner):
            lowering = engine.lower(scenario, "Morpheus-Basic")
            from repro.workloads.applications import get_application

            profile = get_application(scenario.phases[0].application)
            configs = [
                dc.replace(lowering.leaves[signature_id][0].config, mlp_per_sm=64.0)
                for signature_id in lowering.signature_ids
            ]
            rescored = runner.run_configs(profile, configs)
        assert len(rescored) == len(scenario.phases)
        assert runner.replays == 0
        assert runner.disk_cache.replay_misses == 0
