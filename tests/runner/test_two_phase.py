"""Tests for the two-phase replay/score pipeline.

Covers the JSON round-trip of :class:`ReplayMeasurement`, the measurement
tier of the on-disk cache (replay-tier hits when only analytic parameters
change, zero replays for re-scoring sweeps), bit-identicality between direct
runs and cached-measurement re-scores, ``simulate`` as a batch of one against
the two-phase procedure it replaced, analytic re-scoring batches through
``run_configs`` and the cache maintenance CLI (temp-file handling, LRU size
cap).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.runner.spec as spec_module
from repro.analysis.rescoring import mlp_sweep
from repro.energy.components import ComponentEnergies
from repro.energy.model import EnergyModel
from repro.runner import ExperimentRunner, ExperimentSpec, RunSpec, using_runner
from repro.runner.cache import ResultCache
from repro.runner.cache import main as cache_cli
from repro.sim.performance_model import PerformanceModel, ReplayMeasurement
from repro.sim.simulator import GPUSimulator
from repro.telemetry import Telemetry
from repro.telemetry.report import summarize
from runner_test_utils import TINY_FIDELITY, tiny_config


@pytest.fixture
def runner(tmp_path) -> ExperimentRunner:
    return ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)


def reference_simulate(runner, profile, config):
    """``simulate`` as it was before it became a batch of one ``run_leaves``.

    Score-tier lookup, then the measurement (replaying only on a miss),
    then one ``PerformanceModel.score``, on the runner's own cache layers.
    """
    run = RunSpec(profile, config, runner._energies())
    score_key = run.score_key()
    cached = runner._lookup(score_key)
    if cached is not None:
        return cached
    replay_key = run.replay_key()
    measurement = runner._lookup_measurement(replay_key)
    if measurement is None:
        measurement = GPUSimulator(config).replay(profile)
        runner.replays += 1
        runner._store_measurement(replay_key, measurement)
    stats = runner._performance_model.score(profile, config, measurement)
    runner._store(score_key, stats)
    return stats


class TestMeasurementRoundTrip:
    def test_jsonable_round_trip_is_bit_identical(self, kmeans_profile):
        config = tiny_config()
        measurement = GPUSimulator(config).replay(kmeans_profile)
        payload = json.loads(json.dumps(measurement.to_jsonable()))
        restored = ReplayMeasurement.from_jsonable(payload)
        assert dataclasses.asdict(restored) == dataclasses.asdict(measurement)

    def test_scoring_restored_measurement_matches_direct_run(self, kmeans_profile):
        # Morpheus config so the predictor stats path is exercised too.
        from repro.core.config import MorpheusConfig

        config = tiny_config(
            morpheus=MorpheusConfig(), num_compute_sms=16, num_cache_sms=4
        )
        direct = GPUSimulator(config).run(kmeans_profile)
        measurement = GPUSimulator(config).replay(kmeans_profile)
        restored = ReplayMeasurement.from_jsonable(
            json.loads(json.dumps(measurement.to_jsonable()))
        )
        rescored = PerformanceModel().score(kmeans_profile, config, restored)
        assert dataclasses.asdict(rescored) == dataclasses.asdict(direct)

    def test_disk_measurement_tier_round_trip(self, tmp_path, kmeans_profile):
        config = tiny_config()
        measurement = GPUSimulator(config).replay(kmeans_profile)
        cache = ResultCache(tmp_path)
        cache.store_measurement("deadbeef", measurement)
        loaded = cache.load_measurement("deadbeef")
        assert cache.replay_hits == 1
        assert dataclasses.asdict(loaded) == dataclasses.asdict(measurement)

    def test_corrupt_measurement_is_miss(self, tmp_path, kmeans_profile):
        config = tiny_config()
        cache = ResultCache(tmp_path)
        cache.store_measurement("deadbeef", GPUSimulator(config).replay(kmeans_profile))
        cache.measurement_path_for("deadbeef").write_text("{not json")
        assert cache.load_measurement("deadbeef") is None
        assert cache.replay_misses == 1

    def test_corrupt_entries_count_as_misses_in_telemetry_too(
        self, tmp_path, kmeans_profile
    ):
        stats = GPUSimulator(tiny_config()).run(kmeans_profile)
        cache = ResultCache(tmp_path / "cache")
        undecodable, wrong_key, other = "aa" * 32, "bb" * 32, "cc" * 32
        # Valid JSON under the right key, but the stats lack their fields.
        cache.store(undecodable, stats)
        cache.path_for(undecodable).write_text(
            json.dumps({"key": undecodable, "stats": {"ipc": 1.0}})
        )
        # A well-formed entry of another key, sitting under this one.
        cache.store(other, stats)
        cache.path_for(wrong_key).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(wrong_key).write_text(cache.path_for(other).read_text())

        trace_dir = tmp_path / "trace"
        fresh = ResultCache(tmp_path / "cache")
        with Telemetry(directory=trace_dir, enabled=True):
            assert fresh.load(undecodable) is None
            assert fresh.load(wrong_key) is None
        published = summarize(trace_dir)["cache"]["stats"]
        counters = fresh.tier_counters()
        assert published.get("hits", 0) == counters["hits"] == 0
        assert published["misses"] == counters["misses"] == 2
        assert published["corrupt"] == counters["corrupt"] == 2


class TestReplayTierReuse:
    def test_analytic_change_hits_measurement_tier(self, runner, kmeans_profile):
        runner.simulate(kmeans_profile, tiny_config())
        assert runner.replays == 1
        runner.simulate(kmeans_profile, tiny_config(mlp_per_sm=10.0))
        runner.simulate(kmeans_profile, tiny_config(peak_warp_ipc_per_sm=2.0))
        runner.simulate(kmeans_profile, tiny_config(power_gate_unused=False))
        runner.simulate(kmeans_profile, tiny_config(system_name="relabelled"))
        # Four analytic variants: four new stats entries, still one replay.
        assert runner.replays == 1
        assert runner.disk_cache.stores == 5
        assert runner.disk_cache.replay_stores == 1

    def test_replay_change_requires_new_replay(self, runner, kmeans_profile):
        runner.simulate(kmeans_profile, tiny_config())
        runner.simulate(kmeans_profile, tiny_config(seed=2))
        assert runner.replays == 2
        assert runner.disk_cache.replay_stores == 2

    def test_fresh_runner_rescores_from_disk_measurements(
        self, tmp_path, kmeans_profile
    ):
        config = tiny_config()
        cold = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
        cold.simulate(kmeans_profile, config)

        warm = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
        variant = tiny_config(mlp_per_sm=64.0)
        rescored = warm.simulate(kmeans_profile, variant)
        assert warm.replays == 0
        assert warm.disk_cache.replay_hits == 1
        # Bit-identical to a direct (replay + score) run of the variant.
        direct = GPUSimulator(variant).run(kmeans_profile)
        assert dataclasses.asdict(rescored) == dataclasses.asdict(direct)

    def test_score_schema_bump_keeps_measurements(
        self, tmp_path, kmeans_profile, monkeypatch
    ):
        config = tiny_config()
        ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0).simulate(
            kmeans_profile, config
        )
        monkeypatch.setattr(spec_module, "SCORE_SCHEMA_VERSION", 999)
        bumped = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
        bumped.simulate(kmeans_profile, config)
        assert bumped.disk_cache.misses == 1  # stats tier invalidated...
        assert bumped.replays == 0  # ...but the measurement tier still serves

    def test_measurement_for_and_scorer_for_split(self, runner, kmeans_profile):
        # The public phase-1/phase-2 split (used by the contention solver):
        # one measurement fetch, any number of pure in-process scorings,
        # bit-identical to the full two-phase path.
        config = tiny_config()
        measurement = runner.measurement_for(kmeans_profile, config)
        assert runner.replays == 1
        assert runner.measurement_for(kmeans_profile, config) is measurement
        assert runner.replays == 1  # served from the in-process layer

        from repro.sim.performance_model import ResourceEnvelope

        contended_config = dataclasses.replace(
            config, envelope=ResourceEnvelope(dram_bandwidth_share=0.5)
        )
        stores_before = runner.disk_cache.stores
        scored = runner.scorer_for(
            kmeans_profile, config, measurement
        ).score_config(contended_config)
        assert runner.disk_cache.stores == stores_before  # pure: no cache writes
        via_cache = runner.simulate(kmeans_profile, contended_config)
        assert runner.replays == 1
        assert dataclasses.asdict(scored) == dataclasses.asdict(via_cache)


class TestOneLeafSimulate:
    @pytest.mark.parametrize(
        "warmth", ["cold", "memory_warm", "disk_warm", "measurement_only_warm"]
    )
    def test_simulate_matches_the_reference(self, tmp_path, kmeans_profile, warmth):
        # Each side prepares its own cache the same way, then simulates the
        # leaf and an analytic variant of it (same replay key); the stats
        # and every counter must agree after each call.
        config = tiny_config()
        variant = tiny_config(mlp_per_sm=40.0)
        sides = {}
        for side, simulate in (
            ("one_leaf", ExperimentRunner.simulate),
            ("reference", reference_simulate),
        ):
            directory = tmp_path / side
            runner = ExperimentRunner(cache_dir=directory, max_workers=0)
            if warmth == "memory_warm":
                simulate(runner, kmeans_profile, config)
            elif warmth == "disk_warm":
                primer = ExperimentRunner(cache_dir=directory, max_workers=0)
                simulate(primer, kmeans_profile, config)
            elif warmth == "measurement_only_warm":
                primer = ExperimentRunner(cache_dir=directory, max_workers=0)
                primer.measurement_for(kmeans_profile, config)
            sides[side] = [
                (
                    dataclasses.asdict(simulate(runner, kmeans_profile, leaf)),
                    runner.replays,
                    runner.memory_hits,
                    runner.measurement_memory_hits,
                    runner.disk_cache.tier_counters(),
                )
                for leaf in (config, variant)
            ]
        assert sides["one_leaf"] == sides["reference"]
        # One replay in all, by the runner that met a cold cache.
        replays = sides["one_leaf"][-1][1]
        assert replays == (1 if warmth in ("cold", "memory_warm") else 0)


class TestRunConfigs:
    def test_mlp_grid_over_warm_cache_does_zero_replays(self, runner, kmeans_profile):
        base = tiny_config()
        runner.simulate(kmeans_profile, base)
        assert runner.replays == 1
        misses_before = runner.disk_cache.replay_misses
        grid = [
            dataclasses.replace(base, mlp_per_sm=value)
            for value in (40.0, 80.0, 160.0, 240.0, 480.0)
        ]
        stats = runner.run_configs(kmeans_profile, grid)
        assert len(stats) == 5
        assert runner.replays == 1
        assert runner.disk_cache.replay_misses == misses_before

    def test_cold_batch_replays_once_per_replay_key(self, runner, kmeans_profile):
        base = tiny_config()
        configs = [
            dataclasses.replace(base, mlp_per_sm=value) for value in (40.0, 80.0)
        ] + [
            dataclasses.replace(base, seed=2, mlp_per_sm=value)
            for value in (40.0, 80.0)
        ]
        stats = runner.run_configs(kmeans_profile, configs)
        assert len(stats) == 4
        assert runner.replays == 2  # one per distinct replay key (seed 1, seed 2)

    def test_empty_batch_replays_and_stores_nothing(self, runner, kmeans_profile):
        assert runner.run_configs(kmeans_profile, []) == []
        assert runner.run_leaves([]) == []
        assert runner.replays == 0
        assert runner.disk_cache.stores == 0
        assert runner.disk_cache.replay_stores == 0

    def test_mixed_replay_keys_score_each_config_against_its_own_replay(
        self, tmp_path, runner, kmeans_profile
    ):
        # A replay-tier field (trace length) splits the batch into two
        # groups; no config may be scored against the other group's
        # measurement, so each result is what simulating it alone gives.
        base = tiny_config()
        longer = dataclasses.replace(base, trace_accesses=base.trace_accesses + 1)
        configs = [
            base,
            longer,
            dataclasses.replace(base, mlp_per_sm=80.0),
            dataclasses.replace(longer, mlp_per_sm=80.0),
        ]
        batched = runner.run_configs(kmeans_profile, configs)
        assert runner.replays == 2
        for index, config in enumerate(configs):
            alone = ExperimentRunner(
                cache_dir=tmp_path / f"alone-{index}", max_workers=0
            ).simulate(kmeans_profile, config)
            assert dataclasses.asdict(batched[index]) == dataclasses.asdict(alone)
        assert batched[0].execution_cycles != batched[1].execution_cycles

    def test_group_scores_do_not_depend_on_which_config_builds_the_scorer(
        self, tmp_path, kmeans_profile
    ):
        # One replay group is scored through one scorer built from its first
        # config, so every score-tier field must come from the config being
        # scored: the same grid in reverse order gives the same results.
        from repro.sim.performance_model import ResourceEnvelope

        base = tiny_config()
        grid = [
            base,
            dataclasses.replace(base, power_gate_unused=False),
            dataclasses.replace(base, peak_warp_ipc_per_sm=2.0),
            dataclasses.replace(base, mlp_per_sm=80.0),
            dataclasses.replace(base, system_name="other"),
            dataclasses.replace(
                base, envelope=ResourceEnvelope(dram_bandwidth_share=0.5)
            ),
        ]
        forward = ExperimentRunner(
            cache_dir=tmp_path / "forward", max_workers=0
        ).run_configs(kmeans_profile, grid)
        reverse_runner = ExperimentRunner(cache_dir=tmp_path / "reverse", max_workers=0)
        reverse = reverse_runner.run_configs(kmeans_profile, grid[::-1])[::-1]
        assert reverse_runner.replays == 1
        assert [dataclasses.asdict(s) for s in forward] == [
            dataclasses.asdict(s) for s in reverse
        ]
        model = PerformanceModel()
        measurement = reverse_runner.measurement_for(kmeans_profile, base)
        for config, stats in zip(grid, forward):
            alone = model.score(kmeans_profile, config, measurement)
            assert dataclasses.asdict(stats) == dataclasses.asdict(alone)

    def test_serial_and_parallel_batches_are_bit_identical(
        self, tmp_path, kmeans_profile
    ):
        base = tiny_config()
        configs = [
            dataclasses.replace(base, num_compute_sms=count, mlp_per_sm=mlp)
            for count in (10, 20)
            for mlp in (160.0, 320.0)
        ]
        serial = ExperimentRunner(
            cache_dir=tmp_path / "serial", max_workers=0
        ).run_configs(kmeans_profile, configs)
        parallel = ExperimentRunner(
            cache_dir=tmp_path / "parallel", max_workers=2
        ).run_configs(kmeans_profile, configs)
        assert [dataclasses.asdict(s) for s in serial] == [
            dataclasses.asdict(s) for s in parallel
        ]

    def test_parallel_plan_counts_worker_replays(self, tmp_path):
        spec = ExperimentSpec(
            systems=("BL",), applications=("kmeans", "cfd"), fidelity=TINY_FIDELITY
        )
        runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=2)
        with using_runner(runner):
            runner.run_plan(spec)
        # A cold plan must show its replays and replay-tier misses even
        # when workers did them (tier counters are folded back too).
        assert runner.replays > 0
        assert runner.disk_cache.replay_misses > 0
        assert runner.disk_cache.replay_stores > 0

    def test_warm_plan_rerun_has_zero_replay_misses(self, tmp_path):
        spec = ExperimentSpec(
            systems=("BL", "IBL"), applications=("kmeans",), fidelity=TINY_FIDELITY
        )
        cold = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
        with using_runner(cold):
            cold.run_plan(spec)
        warm = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
        with using_runner(warm):
            warm.run_plan(spec)
        assert warm.replays == 0
        assert warm.disk_cache.replay_misses == 0
        assert warm.disk_cache.misses == 0


class TestRescoringSweeps:
    def test_mlp_sweep_zero_replays_when_warm(self, runner, kmeans_profile):
        base = tiny_config()
        with using_runner(runner):
            runner.simulate(kmeans_profile, base)
            sweep = mlp_sweep(kmeans_profile, base, (80.0, 160.0, 320.0))
        assert set(sweep) == {80.0, 160.0, 320.0}
        assert runner.replays == 1  # only the initial simulate
        # A tighter MLP bound can only lower the latency-limited IPC.
        assert sweep[80.0].limits["latency"] <= sweep[320.0].limits["latency"]

    def test_analytic_grid_zero_replays_when_warm(self, runner, kmeans_profile):
        # A dense (MLP, peak IPC) grid is one run_configs batch: every point
        # is scored and stored under its own key off the one measurement.
        base = tiny_config()
        runner.simulate(kmeans_profile, base)
        grid = [
            dataclasses.replace(base, mlp_per_sm=mlp, peak_warp_ipc_per_sm=ipc)
            for mlp in (80.0, 320.0)
            for ipc in (2.0, 6.0)
        ]
        runner.run_configs(kmeans_profile, grid)
        assert runner.disk_cache.stores == 1 + len(grid)
        assert runner.replays == 1

    def test_energy_model_is_read_only(self, runner):
        # Swapping the model mid-life would desync score keys from the
        # scoring constants and poison the shared cache.
        from repro.energy.model import EnergyModel

        with pytest.raises(AttributeError):
            runner.energy_model = EnergyModel()

    def test_energy_sweep_shares_measurements(self, runner, kmeans_profile):
        # An energy sweep is one runner per energy model on a shared cache:
        # each re-scores the measurement the first runner replayed.
        base = tiny_config()
        baseline = runner.simulate(kmeans_profile, base)
        sweep = [
            ExperimentRunner(
                cache_dir=runner.cache_dir,
                max_workers=0,
                energy_model=EnergyModel(energies),
            )
            for energies in (
                ComponentEnergies(),
                ComponentEnergies(dram_pj_per_byte=999.0),
            )
        ]
        default, expensive = (point.simulate(kmeans_profile, base) for point in sweep)
        assert runner.replays == 1
        assert [point.replays for point in sweep] == [0, 0]
        assert dataclasses.asdict(default) == dataclasses.asdict(baseline)
        assert expensive.energy.dram_j > default.energy.dram_j

    def test_cold_energy_sweep_replays_once_and_scores_every_point(
        self, tmp_path, kmeans_profile
    ):
        # Nothing is cached yet: the first point's runner replays, and the
        # others re-score its measurement from the shared cache.
        base = tiny_config()
        energies_grid = (
            ComponentEnergies(),
            ComponentEnergies(dram_pj_per_byte=25.0),
            ComponentEnergies(base_static_watts=40.0),
        )
        sweep = {
            energies: ExperimentRunner(
                cache_dir=tmp_path / "cache",
                max_workers=0,
                energy_model=EnergyModel(energies),
            )
            for energies in energies_grid
        }
        stats = {
            energies: point.simulate(kmeans_profile, base)
            for energies, point in sweep.items()
        }
        assert [point.replays for point in sweep.values()] == [1, 0, 0]
        assert [point.disk_cache.stores for point in sweep.values()] == [1, 1, 1]
        for energies, point in sweep.items():
            assert RunSpec(kmeans_profile, base, energies).score_key() in point.disk_cache
        measurement = sweep[energies_grid[0]].measurement_for(kmeans_profile, base)
        for energies, point_stats in stats.items():
            expected = PerformanceModel(EnergyModel(energies)).score(
                kmeans_profile, base, measurement
            )
            assert dataclasses.asdict(point_stats) == dataclasses.asdict(expected)


class TestCacheMaintenance:
    def _populated(self, tmp_path, kmeans_profile) -> ResultCache:
        runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
        runner.simulate(kmeans_profile, tiny_config())
        runner.simulate(kmeans_profile, tiny_config(mlp_per_sm=10.0))
        return runner.disk_cache

    def test_len_counts_both_tiers_without_temp_files(self, tmp_path, kmeans_profile):
        cache = self._populated(tmp_path, kmeans_profile)
        assert len(cache) == 3  # two stats entries + one measurement
        shard = cache.path_for("deadbeef").parent
        shard.mkdir(parents=True, exist_ok=True)
        (shard / ".tmp-crashed-worker.json").write_text("{}")
        assert len(cache) == 3  # temp files are not entries

    def test_prune_sweeps_stale_temp_files(self, tmp_path, kmeans_profile):
        import os

        cache = self._populated(tmp_path, kmeans_profile)
        shard = cache.measurement_path_for("deadbeef").parent
        shard.mkdir(parents=True, exist_ok=True)
        stale = shard / ".tmp-crashed-worker.json"
        stale.write_text("{}")
        fresh = shard / ".tmp-live-write.json"
        fresh.write_text("{}")
        # Only temp files past the age threshold are crashed-worker leftovers;
        # a fresh one may be another worker's in-flight atomic write.
        old = os.stat(stale).st_mtime - cache.STALE_TEMP_SECONDS - 1
        os.utime(stale, (old, old))
        removed = cache.prune()
        assert removed == 4  # 3 entries + 1 stale temp file
        assert not stale.exists()
        assert fresh.exists()
        assert len(cache) == 0

    def test_prune_single_tier(self, tmp_path, kmeans_profile):
        cache = self._populated(tmp_path, kmeans_profile)
        [entry] = [path.stem for path in cache._measurements.entries()]
        removed = cache.prune(tier=ResultCache.STATS_TIER)
        assert removed == 2
        assert len(cache) == 1  # the measurement survived...
        assert cache.load_measurement(entry) is not None  # ...and still loads

    def test_prune_max_bytes_evicts_lru_first(self, tmp_path):
        import os
        import time

        cache = ResultCache(tmp_path / "cache")
        for index, key in enumerate(("aa" + "0" * 62, "bb" + "1" * 62, "cc" + "2" * 62)):
            cache._stats.store_payload(key, {"key": key, "stats": {"pad": "x" * 100}})
            # Space the mtimes out so LRU ordering is deterministic.
            os.utime(cache.path_for(key), (1000 + index, 1000 + index))
        total = cache.size_bytes()
        removed = cache.prune(max_bytes=total - 1)
        assert removed == 1
        assert not cache.path_for("aa" + "0" * 62).exists()  # oldest went first
        assert cache.path_for("cc" + "2" * 62).exists()

    def test_prune_legacy_single_tier_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        legacy = cache.directory / "ab" / ("ab" + "0" * 62 + ".json")
        legacy.parent.mkdir(parents=True)
        legacy.write_text("{}")
        assert len(cache) == 0  # not a two-tier entry
        assert cache.prune() == 1
        assert not legacy.exists()

    def test_prune_max_bytes_also_sweeps_legacy_orphans(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        legacy = cache.directory / "ab" / ("ab" + "0" * 62 + ".json")
        legacy.parent.mkdir(parents=True)
        legacy.write_text("{}")
        # Cap far above the total: no tier entry qualifies for LRU
        # eviction, but the unreadable legacy orphan goes regardless.
        assert cache.prune(max_bytes=10**9) == 1
        assert not legacy.exists()

    def test_cli_stats_and_prune(self, tmp_path, kmeans_profile, capsys):
        cache = self._populated(tmp_path, kmeans_profile)
        directory = str(cache.directory)
        assert cache_cli(["--cache-dir", directory, "stats"]) == 0
        out = capsys.readouterr().out
        assert "stats" in out and "measurements" in out

        assert cache_cli(["--cache-dir", directory, "prune"]) == 0
        out = capsys.readouterr().out
        assert "removed 3 files" in out
        assert len(ResultCache(directory)) == 0

    def test_cli_prune_max_bytes_keeps_cache_under_cap(
        self, tmp_path, kmeans_profile
    ):
        cache = self._populated(tmp_path, kmeans_profile)
        directory = str(cache.directory)
        assert cache_cli(["--cache-dir", directory, "prune", "--max-bytes", "1"]) == 0
        survivor = ResultCache(directory)
        assert survivor.size_bytes() <= 1
        assert len(survivor) == 0
