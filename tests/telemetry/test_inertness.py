"""Telemetry is provably inert: tracing a run never changes its results.

The acceptance property of the observability layer: enabling
``REPRO_TELEMETRY=1`` (or an active :class:`~repro.telemetry.Telemetry`)
must not change any ``replay_key``/``score_key``/``run_key`` or any emitted
stat bit-for-bit — across serial and pooled plans and scenario mode.  Each
test runs the same workload twice into separate caches, once untraced and
once traced, and asserts identical stats *and* identical cache entry sets
(the file names are the content keys, so equal sets prove no telemetry
knob entered a key).
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import pytest

from repro.runner import ExperimentRunner, ExperimentSpec, using_runner
from repro.scenarios import ScenarioEngine, corun_pair
from repro.telemetry import Telemetry
from fidelity_utils import TINY_FIDELITY

SPEC = ExperimentSpec(
    systems=("BL", "Morpheus-Basic"),
    applications=("spmv",),
    fidelity=TINY_FIDELITY,
)


def _plan_snapshot(result):
    return [
        (dataclasses.asdict(cell), dataclasses.asdict(stats))
        for cell, stats in result
    ]


def _scenario_snapshot(result):
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


def _cache_entries(cache_dir) -> list:
    """Every cache tier file's relative path — the content keys on disk."""
    root = Path(cache_dir)
    return sorted(
        str(p.relative_to(root))
        for tier in ("measurements", "stats", "scenarios")
        for p in (root / tier).rglob("*.json")
        if (root / tier).is_dir()
    )


class TestPlanInertness:
    @pytest.mark.parametrize("max_workers", [0, 2])
    def test_traced_plan_is_bit_identical_to_untraced(
        self, tmp_path, monkeypatch, max_workers
    ):
        # On a 1-CPU host the runner would degrade 2 workers to serial;
        # pretend there are cores so the traced plan really runs pooled.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        # Explicitly scope telemetry off (CI runs the suite with
        # REPRO_TELEMETRY=1, and this run must really be untraced).
        with Telemetry(enabled=False):
            plain = ExperimentRunner(cache_dir=tmp_path / "off", max_workers=0)
            untraced = plain.run_plan(SPEC)

        trace_dir = tmp_path / "trace"
        with Telemetry(directory=trace_dir, enabled=True):
            with ExperimentRunner(
                cache_dir=tmp_path / "on", max_workers=max_workers
            ) as traced_runner:
                traced = traced_runner.run_plan(SPEC)

        assert _plan_snapshot(untraced) == _plan_snapshot(traced)
        assert _cache_entries(tmp_path / "off") == _cache_entries(tmp_path / "on")
        # The traced run actually traced; the untraced one left no trace.
        assert list(trace_dir.glob("events-*.jsonl"))

    def test_untraced_run_writes_no_trace_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with Telemetry(enabled=False):
            runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
            runner.run_plan(SPEC)
        assert not list(tmp_path.rglob("events-*.jsonl"))


class TestScenarioInertness:
    def test_traced_scenario_is_bit_identical_to_untraced(self, tmp_path):
        scenario = corun_pair(rounds=2)

        with Telemetry(enabled=False):
            plain = ExperimentRunner(cache_dir=tmp_path / "off", max_workers=0)
            with using_runner(plain):
                untraced = ScenarioEngine(runner=plain, fidelity=TINY_FIDELITY).run(
                    scenario, "Morpheus-Basic"
                )

        with Telemetry(directory=tmp_path / "trace", enabled=True):
            traced_runner = ExperimentRunner(cache_dir=tmp_path / "on", max_workers=0)
            with using_runner(traced_runner):
                traced = ScenarioEngine(
                    runner=traced_runner, fidelity=TINY_FIDELITY
                ).run(scenario, "Morpheus-Basic")

        assert untraced.run_key == traced.run_key
        assert _scenario_snapshot(untraced) == _scenario_snapshot(traced)
        assert _cache_entries(tmp_path / "off") == _cache_entries(tmp_path / "on")
