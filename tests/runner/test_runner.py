"""Tests for the ExperimentRunner subsystem.

Covers the on-disk result cache (hit / miss / invalidation on config or
schema change), serial-vs-parallel bit-identical execution, plan expansion,
the shared trace cache and the pure performance model.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.runner.spec as spec_module
from repro.runner import (
    ExperimentCell,
    ExperimentRunner,
    ExperimentSpec,
    RunSpec,
    using_runner,
)
from repro.runner.cache import ResultCache, stats_from_jsonable, stats_to_jsonable
from repro.sim.performance_model import PerformanceModel
from repro.sim.simulator import GPUSimulator
from repro.workloads.generator import TraceCache
from runner_test_utils import TINY_FIDELITY, tiny_config


@pytest.fixture
def runner(tmp_path) -> ExperimentRunner:
    return ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)


class TestContentKeys:
    def test_key_is_stable(self, kmeans_profile):
        spec = RunSpec(kmeans_profile, tiny_config())
        assert spec.score_key() == spec.score_key()
        assert spec.score_key() == RunSpec(kmeans_profile, tiny_config()).score_key()

    def test_key_changes_with_any_config_field(self, kmeans_profile):
        base = RunSpec(kmeans_profile, tiny_config()).score_key()
        assert RunSpec(kmeans_profile, tiny_config(seed=2)).score_key() != base
        assert RunSpec(kmeans_profile, tiny_config(num_compute_sms=24)).score_key() != base
        assert (
            RunSpec(kmeans_profile, tiny_config(request_interval_cycles=3.0)).score_key()
            != base
        )

    def test_key_changes_with_profile(self, kmeans_profile, cfd_profile):
        config = tiny_config()
        assert (
            RunSpec(kmeans_profile, config).score_key()
            != RunSpec(cfd_profile, config).score_key()
        )

    def test_key_changes_with_replay_schema_version(self, kmeans_profile, monkeypatch):
        run = RunSpec(kmeans_profile, tiny_config())
        base_replay = run.replay_key()
        base_score = run.score_key()
        monkeypatch.setattr(spec_module, "REPLAY_SCHEMA_VERSION", 999)
        fresh = RunSpec(kmeans_profile, tiny_config())
        # A replay-schema bump invalidates both tiers (score keys embed it).
        assert fresh.replay_key() != base_replay
        assert fresh.score_key() != base_score

    def test_key_changes_with_score_schema_version(self, kmeans_profile, monkeypatch):
        run = RunSpec(kmeans_profile, tiny_config())
        base_replay = run.replay_key()
        base_score = run.score_key()
        monkeypatch.setattr(spec_module, "SCORE_SCHEMA_VERSION", 999)
        fresh = RunSpec(kmeans_profile, tiny_config())
        # A score-schema bump keeps cached measurements valid.
        assert fresh.replay_key() == base_replay
        assert fresh.score_key() != base_score

    def test_analytic_params_share_replay_key(self, kmeans_profile):
        base = RunSpec(kmeans_profile, tiny_config())
        variant = RunSpec(kmeans_profile, tiny_config(mlp_per_sm=10.0))
        assert variant.replay_key() == base.replay_key()
        assert variant.score_key() != base.score_key()


class TestResultCache:
    def test_round_trip_preserves_stats_exactly(self, tmp_path, kmeans_profile):
        stats = GPUSimulator(tiny_config()).run(kmeans_profile)
        cache = ResultCache(tmp_path)
        cache.store("deadbeef", stats)
        loaded = cache.load("deadbeef")
        assert dataclasses.asdict(loaded) == dataclasses.asdict(stats)

    def test_load_missing_key_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("0" * 64) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_miss(self, tmp_path, kmeans_profile):
        stats = GPUSimulator(tiny_config()).run(kmeans_profile)
        cache = ResultCache(tmp_path)
        cache.store("deadbeef", stats)
        cache.path_for("deadbeef").write_text("{not json")
        assert cache.load("deadbeef") is None

    def test_infinity_limits_survive_json(self, kmeans_profile):
        stats = GPUSimulator(tiny_config()).run(kmeans_profile)
        stats.limits["unbounded"] = float("inf")
        restored = stats_from_jsonable(stats_to_jsonable(stats))
        assert restored.limits["unbounded"] == float("inf")


class TestRunnerCaching:
    def test_second_simulate_hits_cache(self, runner, kmeans_profile):
        config = tiny_config()
        first = runner.simulate(kmeans_profile, config)
        assert runner.disk_cache.stores == 1
        second = runner.simulate(kmeans_profile, config)
        assert second is first  # served from the in-process layer
        assert runner.memory_hits == 1

    def test_fresh_runner_reads_disk_cache(self, tmp_path, kmeans_profile):
        config = tiny_config()
        first_runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
        first = first_runner.simulate(kmeans_profile, config)
        second_runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
        second = second_runner.simulate(kmeans_profile, config)
        assert second_runner.disk_cache.hits == 1
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    def test_config_change_invalidates(self, runner, kmeans_profile):
        runner.simulate(kmeans_profile, tiny_config())
        runner.simulate(kmeans_profile, tiny_config(request_interval_cycles=4.0))
        assert runner.disk_cache.stores == 2

    def test_only_the_local_backend_exists(self, tmp_path):
        ExperimentRunner(cache_dir=tmp_path / "cache", backend="local")
        with pytest.raises(ValueError, match="service was removed"):
            ExperimentRunner(cache_dir=tmp_path / "cache", backend="service")

    def test_disk_cache_can_be_disabled(self, tmp_path, kmeans_profile):
        runner = ExperimentRunner(
            cache_dir=tmp_path / "cache", max_workers=0, use_disk_cache=False
        )
        runner.simulate(kmeans_profile, tiny_config())
        assert len(runner.disk_cache) == 0


class TestSerialParallelParity:
    def test_run_configs_parallel_matches_serial(self, tmp_path, kmeans_profile):
        configs = [tiny_config(num_compute_sms=count) for count in (10, 20, 34, 50)]
        serial = ExperimentRunner(
            cache_dir=tmp_path / "serial", max_workers=0
        ).run_configs(kmeans_profile, configs)
        parallel = ExperimentRunner(
            cache_dir=tmp_path / "parallel", max_workers=2
        ).run_configs(kmeans_profile, configs)
        assert [dataclasses.asdict(s) for s in serial] == [
            dataclasses.asdict(s) for s in parallel
        ]

    def test_run_plan_parallel_matches_serial(self, tmp_path):
        spec = ExperimentSpec(
            systems=("BL", "Morpheus-Basic"),
            applications=("kmeans", "cfd"),
            fidelity=TINY_FIDELITY,
        )
        serial_runner = ExperimentRunner(cache_dir=tmp_path / "serial", max_workers=0)
        with using_runner(serial_runner):
            serial = serial_runner.run_plan(spec)
        parallel_runner = ExperimentRunner(cache_dir=tmp_path / "parallel", max_workers=2)
        with using_runner(parallel_runner):
            parallel = parallel_runner.run_plan(spec)
        assert set(serial.results) == set(parallel.results)
        for cell, stats in serial:
            assert dataclasses.asdict(stats) == dataclasses.asdict(
                parallel.results[cell]
            ), cell

    def test_warm_plan_rerun_is_pure_cache(self, tmp_path):
        spec = ExperimentSpec(
            systems=("BL",), applications=("kmeans",), fidelity=TINY_FIDELITY
        )
        cold_runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
        with using_runner(cold_runner):
            cold = cold_runner.run_plan(spec)
        warm_runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
        with using_runner(warm_runner):
            warm = warm_runner.run_plan(spec)
        assert warm_runner.disk_cache.stores == 0
        assert warm_runner.disk_cache.hits >= 1
        for cell, stats in cold:
            assert dataclasses.asdict(stats) == dataclasses.asdict(warm.results[cell])


class TestRunnerIsolation:
    def test_non_active_runner_plan_uses_own_cache(self, tmp_path, monkeypatch):
        # Named-system cells must route through *this* runner even when it is
        # not installed as the process-wide one.
        monkeypatch.chdir(tmp_path)
        runner = ExperimentRunner(cache_dir=tmp_path / "own", max_workers=0)
        runner.run_plan(
            ExperimentSpec(
                systems=("IBL",), applications=("kmeans",), fidelity=TINY_FIDELITY
            )
        )
        assert len(runner.disk_cache) > 0
        assert not (tmp_path / ".repro_cache").exists()

    def test_custom_energy_model_gets_its_own_cache_entries(self, tmp_path, kmeans_profile):
        from repro.energy.components import ComponentEnergies
        from repro.energy.model import EnergyModel

        config = tiny_config()
        default = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
        custom = ExperimentRunner(
            cache_dir=tmp_path / "cache",
            max_workers=0,
            energy_model=EnergyModel(ComponentEnergies(dram_pj_per_byte=999.0)),
        )
        base = default.simulate(kmeans_profile, config)
        scored = custom.simulate(kmeans_profile, config)
        assert custom.disk_cache.hits == 0  # different key, not served base's entry
        assert scored.energy.dram_j != base.energy.dram_j

    def test_parallel_workers_use_custom_energy_model(self, tmp_path, kmeans_profile):
        from repro.energy.components import ComponentEnergies
        from repro.energy.model import EnergyModel

        model = EnergyModel(ComponentEnergies(dram_pj_per_byte=999.0))
        configs = [tiny_config(num_compute_sms=count) for count in (10, 20)]
        serial = ExperimentRunner(
            cache_dir=tmp_path / "serial", max_workers=0, energy_model=model
        ).run_configs(kmeans_profile, configs)
        parallel = ExperimentRunner(
            cache_dir=tmp_path / "parallel", max_workers=2, energy_model=model
        ).run_configs(kmeans_profile, configs)
        assert [dataclasses.asdict(s) for s in serial] == [
            dataclasses.asdict(s) for s in parallel
        ]

    def test_by_application_rejects_ambiguous_plans(self, tmp_path):
        spec = ExperimentSpec(
            systems=("BL",),
            applications=("kmeans",),
            fidelity=TINY_FIDELITY,
            seeds=(1, 2),
        )
        runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
        with using_runner(runner):
            result = runner.run_plan(spec)
        with pytest.raises(KeyError):
            result.by_application("kmeans")
        assert result.get("BL", "kmeans", seed=2).application == "kmeans"


class TestPlanExpansion:
    def test_matrix_size(self):
        spec = ExperimentSpec(
            systems=("BL", "IBL"),
            applications=("kmeans", "cfd", "spmv"),
            seeds=(1, 2),
        )
        cells = spec.cells
        assert len(cells) == 12
        assert cells[0] == ExperimentCell("BL", "kmeans", 1)
        assert cells[1] == ExperimentCell("BL", "kmeans", 2)
        assert cells[-1] == ExperimentCell("IBL", "spmv", 2)

    @pytest.mark.parametrize(
        "axis, values, repeated",
        [
            ("systems", ("BL", "IBL", "BL"), "system 'BL'"),
            ("applications", ("kmeans", "kmeans"), "application 'kmeans'"),
            ("seeds", (1, 2, 2), "seed 2"),
        ],
    )
    def test_a_repeated_entry_is_rejected(self, axis, values, repeated):
        # Results are keyed by cell: a repeated entry would give a result
        # whose length disagrees with the cells it iterates.
        fields = {"systems": ("BL",), "applications": ("kmeans",), "seeds": (1,)}
        fields[axis] = values
        with pytest.raises(ValueError, match=f"lists {repeated} twice"):
            ExperimentSpec(**fields)


class TestTraceCache:
    def test_same_inputs_reuse_trace(self, kmeans_profile):
        cache = TraceCache()
        first = cache.traces(kmeans_profile, 20, 1 / 64, 1, 200, 800)
        second = cache.traces(kmeans_profile, 20, 1 / 64, 1, 200, 800)
        assert second[0] is first[0] and second[1] is first[1]
        assert cache.hits == 1 and cache.misses == 1

    def test_different_seed_regenerates(self, kmeans_profile):
        cache = TraceCache()
        cache.traces(kmeans_profile, 20, 1 / 64, 1, 200, 800)
        cache.traces(kmeans_profile, 20, 1 / 64, 2, 200, 800)
        assert cache.misses == 2

    def test_lru_bound(self, kmeans_profile):
        cache = TraceCache(max_entries=2)
        for seed in (1, 2, 3):
            cache.traces(kmeans_profile, 20, 1 / 64, seed, 0, 100)
        cache.traces(kmeans_profile, 20, 1 / 64, 1, 0, 100)  # evicted -> miss
        assert cache.misses == 4


class TestPerformanceModel:
    def test_rescoring_is_pure(self, kmeans_profile):
        config = tiny_config()
        simulator = GPUSimulator(config)
        measurement = simulator.replay(kmeans_profile)
        model = PerformanceModel()
        first = model.score(kmeans_profile, config, measurement)
        second = model.score(kmeans_profile, config, measurement)
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    def test_rescoring_under_different_parameters(self, kmeans_profile):
        config = tiny_config()
        measurement = GPUSimulator(config).replay(kmeans_profile)
        model = PerformanceModel()
        base = model.score(kmeans_profile, config, measurement)
        rescored = model.score(
            kmeans_profile,
            dataclasses.replace(config, mlp_per_sm=10.0),
            measurement,
        )
        assert rescored.limits["latency"] < base.limits["latency"]

    def test_run_equals_replay_plus_score(self, kmeans_profile):
        config = tiny_config()
        via_run = GPUSimulator(config).run(kmeans_profile)
        simulator = GPUSimulator(config)
        via_parts = simulator.performance_model.score(
            kmeans_profile, config, simulator.replay(kmeans_profile)
        )
        assert dataclasses.asdict(via_run) == dataclasses.asdict(via_parts)


class TestDeterminism:
    def test_traces_stable_across_processes(self, kmeans_profile):
        # The RNG seed must not depend on PYTHONHASHSEED; two generators in
        # this process are a (weaker) proxy, the strong check being that the
        # parallel-worker tests above compare against in-process results.
        from repro.workloads.generator import TraceGenerator, _stable_seed

        assert _stable_seed(1, "kmeans", 20) == _stable_seed(1, "kmeans", 20)
        first = TraceGenerator(kmeans_profile, 20, scale=1 / 64, seed=1).generate(500)
        second = TraceGenerator(kmeans_profile, 20, scale=1 / 64, seed=1).generate(500)
        assert first.addresses == second.addresses
