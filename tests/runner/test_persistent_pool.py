"""Tests for the persistent worker pool behind ``ExperimentRunner._pool_map``.

One ``ProcessPoolExecutor`` serves every batch for the life of the runner
(worker startup is paid once, not per ``run_leaves``/``run_plan`` call); it
is torn down by ``close()``/garbage collection, recreated after a
``BrokenProcessPool``, and never created at all for serial runners — with a
serial fallback identical in results to pooled execution.  Pool workers
use their parent's cache directory, so a plan re-run on a second directory
recomputes every cell, and a pooled run restarted on the same cache resumes
from what its predecessor stored.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import pytest

from repro.runner import ExperimentRunner, ExperimentSpec
from runner_test_utils import TINY_FIDELITY, tiny_config


def _square(value: int) -> int:
    return value * value


def _die(_value: int) -> int:  # pragma: no cover - runs in a worker it kills
    os._exit(1)


@pytest.fixture
def pooled_runner(tmp_path):
    runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=2)
    if runner._ensure_pool() is None:
        pytest.skip("multiprocessing unavailable in this sandbox")
    yield runner
    runner.close()


class TestPersistentPool:
    def test_one_pool_serves_many_batches(self, pooled_runner):
        assert pooled_runner._pool_map(_square, [1, 2, 3], 2) == [1, 4, 9]
        pool = pooled_runner._pool
        assert pool is not None
        assert pooled_runner._pool_map(_square, [4, 5], 2) == [16, 25]
        assert pooled_runner._pool is pool  # reused, not respawned

    def test_close_tears_down_and_next_use_recreates(self, pooled_runner):
        pooled_runner._pool_map(_square, [1], 1)
        first = pooled_runner._pool
        pooled_runner.close()
        assert pooled_runner._pool is None
        assert pooled_runner._pool_map(_square, [2], 1) == [4]
        assert pooled_runner._pool is not None
        assert pooled_runner._pool is not first

    def test_close_is_idempotent(self, pooled_runner):
        pooled_runner._pool_map(_square, [1], 1)
        pooled_runner.close()
        pooled_runner.close()
        assert pooled_runner._pool is None

    def test_broken_pool_falls_back_serially_and_recovers(self, pooled_runner):
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            assert pooled_runner._pool_map(_die, [1], 1) is None
        assert pooled_runner._pool is None  # torn down, not left broken
        # The next batch starts a fresh pool transparently.
        assert pooled_runner._pool_map(_square, [3], 1) == [9]

    def test_serial_runner_never_creates_a_pool(self, tmp_path, kmeans_profile):
        runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
        stats = runner.run_configs(kmeans_profile, [tiny_config(seed=s) for s in (1, 2)])
        assert len(stats) == 2
        assert runner._pool is None
        assert runner._ensure_pool() is None

    def test_pool_size_capped_by_cpu_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=8)
        try:
            pool = runner._ensure_pool()
            if pool is None:
                pytest.skip("multiprocessing unavailable in this sandbox")
            assert pool._max_workers == 1
        finally:
            runner.close()

    def test_pooled_batches_match_serial(self, tmp_path, kmeans_profile, monkeypatch):
        # On 1-CPU hosts _effective_workers degrades to serial; pretend we
        # have cores so the persistent pool actually carries both batches.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        serial = ExperimentRunner(cache_dir=tmp_path / "serial", max_workers=0)
        pooled = ExperimentRunner(cache_dir=tmp_path / "pooled", max_workers=2)
        try:
            if pooled._ensure_pool() is None:
                pytest.skip("multiprocessing unavailable in this sandbox")
            pool = pooled._pool
            for seeds in ((1, 2), (3, 4)):
                configs = [tiny_config(seed=seed) for seed in seeds]
                expected = serial.run_configs(kmeans_profile, configs)
                actual = pooled.run_configs(kmeans_profile, configs)
                assert [dataclasses.asdict(s) for s in actual] == [
                    dataclasses.asdict(s) for s in expected
                ]
            assert pooled._pool is pool
            assert pooled.replays == serial.replays == 4
        finally:
            pooled.close()


def _stats_dicts(stats_list):
    return [dataclasses.asdict(stats) for stats in stats_list]


class TestPooledCacheBypass:
    @pytest.mark.parametrize("max_workers", [0, 2])
    def test_bypassed_plan_recomputes_every_cell(
        self, tmp_path, monkeypatch, max_workers
    ):
        # Pool workers build their own runners on the parent's cache
        # directory; a parent on a second directory must make them
        # recompute every cell instead of loading the first one's entries.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        spec = ExperimentSpec(
            systems=("BL", "IBL"),
            applications=("kmeans",),
            seeds=(1, 2),
            fidelity=TINY_FIDELITY,
        )
        runs = []
        for directory in ("cache", "again"):
            with ExperimentRunner(
                cache_dir=tmp_path / directory, max_workers=max_workers
            ) as runner:
                runs.append((runner.run_plan(spec), runner.replays))
            measurements = tmp_path / directory / "measurements"
            assert len(list(measurements.rglob("*.json"))) == runner.replays
        (cold, cold_replays), (again, replays) = runs
        assert len(cold) == 4
        assert replays == cold_replays > len(cold)
        assert _stats_dicts(stats for _, stats in again) == _stats_dicts(
            stats for _, stats in cold
        )


class TestResumeFromCache:
    def test_restarted_runner_resumes_from_cache(
        self, tmp_path, kmeans_profile, monkeypatch
    ):
        # A pooled run stopped half way, then restarted on the same cache,
        # replays only the leaves its predecessor never stored.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        configs = [tiny_config(seed=seed) for seed in (1, 2, 3, 4)]
        with ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=2) as first:
            first.run_configs(kmeans_profile, configs[:2])
        with ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=2) as second:
            resumed = second.run_configs(kmeans_profile, configs)
        serial = ExperimentRunner(cache_dir=tmp_path / "serial", max_workers=0)
        expected = serial.run_configs(kmeans_profile, configs)
        assert second.replays == 2
        measurements = Path(second.cache_dir) / "measurements"
        assert len(list(measurements.rglob("*.json"))) == 4
        assert _stats_dicts(resumed) == _stats_dicts(expected)
