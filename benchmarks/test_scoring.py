"""Scoring: the analytic-sweep path.

Analytic sweeps (envelope/MLP/peak-IPC/energy grids) and the co-run
contention fixed point spend their time in the roofline of
:class:`~repro.sim.vector_model.MeasurementScorer`.  These checks score a
grid over one measurement through one
:meth:`~repro.sim.performance_model.PerformanceModel.scorer`, plus the full
envelope sweep (scoring + key derivation + cache plumbing) that experiment
campaigns actually pay.
"""

from __future__ import annotations

import dataclasses

from conftest import BENCH_FIDELITY

from repro.analysis.rescoring import envelope_sweep
from repro.runner import active_runner
from repro.sim.performance_model import PerformanceModel, ResourceEnvelope
from repro.workloads.applications import get_application

#: Sweep width; ISSUE acceptance keys off a >= 64-point grid.
GRID_POINTS = 128

BASE_CONFIG = BENCH_FIDELITY.config(
    num_compute_sms=34,
    power_gate_unused=True,
    system_name="bench-scoring",
    seed=1,
)


def _envelopes(count: int = GRID_POINTS):
    """A deterministic spread of contention envelopes (all shares in (0, 1])."""
    return [
        ResourceEnvelope(
            dram_bandwidth_share=0.1 + 0.9 * ((index * 37 % count) + 1) / count,
            llc_bandwidth_share=0.1 + 0.9 * ((index * 59 % count) + 1) / count,
            noc_bandwidth_share=0.1 + 0.9 * ((index * 83 % count) + 1) / count,
        )
        for index in range(count)
    ]


def _variants():
    return [
        dataclasses.replace(BASE_CONFIG, envelope=envelope)
        for envelope in _envelopes()
    ]


def test_scorer_grid():
    """Score a 128-point envelope grid over one measurement (pure scoring)."""
    runner = active_runner()
    profile = get_application("kmeans")
    measurement = runner.measurement_for(profile, BASE_CONFIG)
    model = PerformanceModel()
    variants = _variants()

    scorer = model.scorer(profile, BASE_CONFIG, measurement)
    batched = [scorer.score_config(variant) for variant in variants]

    assert len(batched) == GRID_POINTS
    single = model.score(profile, variants[0], measurement)
    assert dataclasses.asdict(batched[0]) == dataclasses.asdict(single)


def test_envelope_sweep_warm_cache():
    """The full envelope sweep: scoring plus keys plus cache I/O."""
    result = envelope_sweep("kmeans", BASE_CONFIG, _envelopes())

    assert len(result) == GRID_POINTS
    assert all(stats.ipc > 0 for stats in result.values())

