"""Stress tests for the cache's concurrent-writer safety contract.

``_JsonTier.store_payload`` commits entries with ``mkstemp`` + one atomic
``os.replace``, which is the entire synchronization story of the shared
cache: N worker processes may hammer the same keys and readers must never
observe a torn entry, no stale ``.tmp-`` files may leak from completed
writes, and per-process counters must stay consistent when folded back
through ``absorb_counters``.  The runner's process pool leans on exactly
this (every worker publishes into one cache directory), so the contract is
exercised here with real processes, not threads.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.runner.cache import TEMP_PREFIX, ResultCache, _JsonTier

#: Shared keys every process hammers (two shard directories).
KEYS = [f"aa{index:02d}feed" for index in range(4)] + [
    f"bb{index:02d}feed" for index in range(4)
]

ROUNDS = 25


def _payload(key: str) -> dict:
    # Content-addressed semantics: every writer stores the same payload for
    # a given key, so any complete read must match this exactly.
    return {"key": key, "blob": "x" * 4096, "values": list(range(32))}


def _hammer(args):
    """Worker body: store+load every key repeatedly; report anomalies."""
    directory, rounds = args
    tier = _JsonTier(Path(directory))
    torn = 0
    for _ in range(rounds):
        for key in KEYS:
            tier.store_payload(key, _payload(key))
            loaded = tier.load_payload(key)
            # After this process's own store the entry exists; any complete
            # read is bit-exact because all writers write identical content.
            if loaded != _payload(key):
                torn += 1
    return {
        "torn": torn,
        "replay_hits": tier.hits,
        "replay_misses": tier.misses,
        "replay_stores": tier.stores,
    }


def _run_hammer_pool(directory, processes: int):
    try:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            return list(
                pool.map(_hammer, [(str(directory), ROUNDS)] * processes)
            )
    except (OSError, PermissionError, NotImplementedError, ImportError) as error:
        pytest.skip(f"multiprocessing unavailable in this sandbox: {error}")


class TestConcurrentWriters:
    def test_no_torn_reads_no_tmp_leaks_consistent_counters(self, tmp_path):
        tier_dir = tmp_path / "measurements"
        reports = _run_hammer_pool(tier_dir, processes=4)

        # No process ever read a torn, partial or missing entry.
        assert [report["torn"] for report in reports] == [0, 0, 0, 0]
        assert [report["replay_misses"] for report in reports] == [0, 0, 0, 0]

        # Every committed write was renamed into place: no .tmp- leaks.
        leaks = list(tier_dir.rglob(f"{TEMP_PREFIX}*"))
        assert leaks == []

        # Exactly one entry per key survives, each one complete and exact.
        tier = _JsonTier(tier_dir)
        assert len(tier) == len(KEYS)
        for key in KEYS:
            assert tier.load_payload(key) == _payload(key)

        # Folding the per-process counters back through absorb_counters
        # yields the exact totals (the parent runner's accounting path).
        cache = ResultCache(tmp_path)
        for report in reports:
            cache.absorb_counters(
                {name: value for name, value in report.items() if name != "torn"}
            )
        expected_each = len(KEYS) * ROUNDS
        assert cache.replay_stores == 4 * expected_each
        assert cache.replay_hits == 4 * expected_each
        assert cache.replay_misses == 0

    def test_interleaved_writers_in_one_process(self, tmp_path):
        # The single-process analogue (always runs, even where forking is
        # unavailable): two tier objects over one directory, interleaved.
        a = _JsonTier(tmp_path / "tier")
        b = _JsonTier(tmp_path / "tier")
        for _ in range(ROUNDS):
            for key in KEYS:
                a.store_payload(key, _payload(key))
                assert b.load_payload(key) == _payload(key)
                b.store_payload(key, _payload(key))
                assert a.load_payload(key) == _payload(key)
        assert list((tmp_path / "tier").rglob(f"{TEMP_PREFIX}*")) == []
        assert len(a) == len(KEYS)

    def test_crashed_writer_temp_is_invisible_and_prunable(self, tmp_path):
        # Simulate a writer that died mid-serialize: its .tmp- file must be
        # invisible to readers/entry listings and swept by prune once stale.
        import os
        import time

        cache = ResultCache(tmp_path)
        tier_dir = tmp_path / ResultCache.MEASUREMENTS_TIER / "aa"
        tier_dir.mkdir(parents=True)
        orphan = tier_dir / f"{TEMP_PREFIX}dead.json"
        orphan.write_text(json.dumps({"partial": True})[:-4])
        old = time.time() - 3600.0
        os.utime(orphan, (old, old))
        tier = _JsonTier(tmp_path / ResultCache.MEASUREMENTS_TIER)
        assert list(tier.entries()) == []
        cache.prune(tier=ResultCache.MEASUREMENTS_TIER)
        assert not orphan.exists()
