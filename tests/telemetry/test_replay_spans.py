"""Every ``runner.replay`` span names the replay key of the leaf it replays.

Each case runs cold under an active :class:`~repro.telemetry.Telemetry` on
its own cache directory, and returns the (profile, config) leaves it asked
for.  The trace must hold one ``runner.replay`` span per distinct leaf, and
the spans' keys must be those leaves' :meth:`RunSpec.replay_key`, which are
also the keys the measurements were stored under: serial and pooled, and
through every entry point that replays.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest

from repro.energy.components import DEFAULT_ENERGIES
from repro.runner import ExperimentRunner, ExperimentSpec, RunSpec
from repro.scenarios import ScenarioEngine, get_scenario
from repro.sim.simulator import SimulationConfig
from repro.systems.baseline import DEFAULT_SM_CANDIDATES
from repro.telemetry import Telemetry
from repro.telemetry.schema import iter_records
from repro.workloads.applications import ApplicationProfile, get_application
from fidelity_utils import TINY_FIDELITY

Leaf = Tuple[ApplicationProfile, SimulationConfig]


def _leaf(application: str = "kmeans", **fields) -> Leaf:
    fields.setdefault("num_compute_sms", 20)
    return get_application(application), TINY_FIDELITY.config(**fields)


def _batch() -> List[Leaf]:
    # Two profiles, and an analytic variant sharing its base's replay key.
    return [
        _leaf(),
        _leaf(mlp_per_sm=40.0),
        _leaf(num_compute_sms=34),
        _leaf("cfd"),
    ]


def _run_leaves(runner: ExperimentRunner) -> List[Leaf]:
    leaves = _batch()
    runner.run_leaves(leaves)
    return leaves


def _simulate(runner: ExperimentRunner) -> List[Leaf]:
    leaf = _leaf()
    runner.simulate(*leaf)
    return [leaf]


def _measurement_for(runner: ExperimentRunner) -> List[Leaf]:
    leaf = _leaf()
    runner.measurement_for(*leaf)
    return [leaf]


def _plan_cells(runner: ExperimentRunner) -> List[Leaf]:
    # Each IBL cell scores the candidate SM counts whose compute roof can
    # still win at the search sizing, then runs the count it chose at the
    # full sizing.  The stats tier holds one entry per scored leaf.
    spec = ExperimentSpec(
        systems=("IBL",), applications=("kmeans",), seeds=(1, 2), fidelity=TINY_FIDELITY
    )
    result = runner.run_plan(spec)
    scored = {path.stem for path in (Path(runner.cache_dir) / "stats").rglob("*.json")}
    leaves = []
    for cell, stats in result:
        fields = dict(power_gate_unused=True, system_name="IBL", seed=cell.seed)
        candidates = [
            _leaf(num_compute_sms=count, search=True, **fields)
            for count in DEFAULT_SM_CANDIDATES
        ]
        leaves += [
            leaf
            for leaf in candidates
            if RunSpec(*leaf, DEFAULT_ENERGIES).score_key() in scored
        ]
        leaves.append(_leaf(num_compute_sms=stats.num_compute_sms, **fields))
    return leaves


def _scenario(runner: ExperimentRunner) -> List[Leaf]:
    # Co-run phases: the contention solver fetches measurements too.
    engine = ScenarioEngine(runner=runner, fidelity=TINY_FIDELITY)
    scenario = get_scenario("corun_overlap")
    engine.run(scenario, "Morpheus-Basic")
    lowering = engine.lower(scenario, "Morpheus-Basic")
    return [
        (get_application(leaf.application), leaf.config)
        for leaves in lowering.leaves
        for leaf in leaves
    ]


#: case -> (the work, the runner's worker count).
CASES: Dict[str, Tuple[Callable[[ExperimentRunner], List[Leaf]], int]] = {
    "run_leaves_serial": (_run_leaves, 0),
    "run_leaves_pooled": (_run_leaves, 2),
    "simulate": (_simulate, 0),
    "measurement_for": (_measurement_for, 0),
    "plan_cell_pooled": (_plan_cells, 2),
    "scenario_run": (_scenario, 0),
}


def _replay_spans(trace_dir) -> List[dict]:
    return [
        record
        for path in sorted(trace_dir.glob("events-*.jsonl"))
        for _, record in iter_records(path)
        if record.get("type") == "span" and record["name"] == "runner.replay"
    ]


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_replay_span_names_its_leafs_replay_key(tmp_path, monkeypatch, case):
    work, max_workers = CASES[case]
    # On a 1-CPU host the runner would degrade 2 workers to serial.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    trace_dir, cache_dir = tmp_path / "trace", tmp_path / "cache"
    with Telemetry(directory=trace_dir, enabled=True):
        with ExperimentRunner(cache_dir=cache_dir, max_workers=max_workers) as runner:
            if max_workers and runner._ensure_pool() is None:
                pytest.skip("multiprocessing unavailable in this sandbox")
            leaves = work(runner)
    expected = {
        RunSpec(profile, config, DEFAULT_ENERGIES).replay_key()
        for profile, config in leaves
    }
    spans = _replay_spans(trace_dir)
    assert sorted(span["attrs"]["replay_key"] for span in spans) == sorted(expected)
    stored = {path.stem for path in (cache_dir / "measurements").rglob("*.json")}
    assert stored == expected
    assert runner.replays == len(spans)
    if max_workers:
        assert {span["pid"] for span in spans} != {os.getpid()}
