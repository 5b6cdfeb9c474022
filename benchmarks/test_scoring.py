"""Scoring: the analytic-sweep hot path.

Analytic sweeps (envelope/MLP/peak-IPC/energy grids) and the co-run
contention fixed point spend their time in the roofline of
:class:`~repro.sim.vector_model.MeasurementScorer`.  These benchmarks time
:meth:`~repro.sim.performance_model.PerformanceModel.score_batch` over one
warm measurement, plus the full warm-cache sweep (scoring + key derivation
+ cache plumbing) that experiment campaigns actually pay.
"""

from __future__ import annotations

import dataclasses

from conftest import BENCH_FIDELITY, run_scoring

from repro.analysis.rescoring import envelope_sweep
from repro.runner import active_runner
from repro.sim.performance_model import PerformanceModel, ResourceEnvelope
from repro.sim.simulator import SimulationConfig
from repro.workloads.applications import get_application

#: Sweep width; ISSUE acceptance keys off a >= 64-point grid.
GRID_POINTS = 128

BASE_CONFIG = SimulationConfig(
    num_compute_sms=34,
    power_gate_unused=True,
    capacity_scale=BENCH_FIDELITY.capacity_scale,
    trace_accesses=BENCH_FIDELITY.trace_accesses,
    warmup_accesses=BENCH_FIDELITY.warmup_accesses,
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


def test_score_batch_grid(benchmark):
    """Time scoring a 128-point envelope grid over one measurement (pure scoring)."""
    runner = active_runner()
    profile = get_application("kmeans")
    measurement = runner.measurement_for(profile, BASE_CONFIG)
    model = PerformanceModel()
    variants = _variants()

    batched = benchmark(
        lambda: model.score_batch(profile, variants, measurement, validate=False)
    )

    assert len(batched) == GRID_POINTS
    single = model.score(profile, variants[0], measurement)
    assert dataclasses.asdict(batched[0]) == dataclasses.asdict(single)


def test_envelope_sweep_warm_cache(benchmark):
    """The full warm-cache envelope sweep: scoring plus keys plus cache I/O."""
    envelopes = _envelopes()

    result = run_scoring(
        benchmark,
        lambda: envelope_sweep("kmeans", BASE_CONFIG, envelopes),
    )

    assert len(result) == GRID_POINTS
    assert all(stats.ipc > 0 for stats in result.values())


def test_analytic_tier_sweep(benchmark):
    """The same sweep at ``fidelity="analytic"`` — no trace ever replayed."""
    analytic_config = dataclasses.replace(
        BASE_CONFIG, replay_mode="analytic", system_name="bench-scoring-analytic"
    )
    envelopes = _envelopes()

    result = run_scoring(
        benchmark,
        lambda: envelope_sweep("kmeans", analytic_config, envelopes),
    )

    assert len(result) == GRID_POINTS
