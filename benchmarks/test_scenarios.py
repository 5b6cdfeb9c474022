"""Scenario engine: phase lowering, timeline runs and the contention solve.

Unlike the figure checks, these exercise the scenario bookkeeping itself:
policy planning plus config construction (``ScenarioEngine.lower``), a
full timeline run (lowering plus cache lookups plus aggregation) and the
co-run shared-bandwidth fixed point.
"""

from __future__ import annotations

import dataclasses

from conftest import BENCH_FIDELITY

from repro.analysis.scenarios import time_weighted_ipc, transition_overheads
from repro.runner import active_runner
from repro.scenarios import (
    ContentionModel,
    DynamicCapacityManager,
    ScenarioEngine,
    corun_overlap,
    ramp,
)
from repro.scenarios.contention import solve_scenario_contention
from repro.workloads.applications import get_application

#: A long diurnal timeline (2 * 24 - 1 = 47 phases) stresses per-phase work.
LOWERING_SCENARIO = ramp(application="kmeans", low_sms=10, high_sms=60, steps=24)

#: A short timeline for the end-to-end run.
RUN_SCENARIO = ramp(application="kmeans", low_sms=24, high_sms=60, steps=3)

#: A contended overlapping co-run for the fixed-point solver.
CORUN_SCENARIO = corun_overlap(rounds=2)


def test_scenario_phase_lowering():
    """Lower a 47-phase diurnal timeline to leaf configs (pure)."""
    engine = ScenarioEngine(fidelity=BENCH_FIDELITY)
    policy = DynamicCapacityManager(hysteresis_sms=2)

    lowering = engine.lower(LOWERING_SCENARIO, "Morpheus-ALL", policy)

    assert len(lowering.signature_ids) == len(LOWERING_SCENARIO)
    # The ramp hands capacity back on every ascending step: the dynamic
    # manager must charge at least one non-zero transition.
    assert any(
        not lowering.transitions[transition_id].is_zero
        for transition_id in lowering.transition_ids
    )


def test_scenario_warm_timeline_run():
    """A timeline run (lowering + scoring path + aggregation)."""
    engine = ScenarioEngine(fidelity=BENCH_FIDELITY)

    result = engine.run(RUN_SCENARIO, "Morpheus-Basic")

    assert len(result) == len(RUN_SCENARIO)
    assert time_weighted_ipc(result) > 0
    assert transition_overheads(result).transitions > 0


def test_corun_contention_solve():
    """The co-run shared-bandwidth fixed point over a contended timeline.

    The run covers lowering, the uncontended batch and the
    proportional-pressure fixed-point solve.
    """
    engine = ScenarioEngine(fidelity=BENCH_FIDELITY)

    result = engine.run(CORUN_SCENARIO, "Morpheus-ALL")

    assert len(result) == len(CORUN_SCENARIO)
    for execution in result.phases:
        for resident in execution.residents:
            # The solve actually contended the residents.
            assert resident.stats.ipc < resident.uncontended_ipc


def _corun_leaves():
    base = BENCH_FIDELITY.config(
        num_compute_sms=28,
        power_gate_unused=True,
        system_name="bench-contention",
        seed=1,
    )
    return [
        (
            get_application(app),
            dataclasses.replace(base, num_compute_sms=sms, system_name=app),
        )
        for app, sms in (("spmv", 28), ("cfd", 24))
    ]


def test_contention_fixed_point_kernel():
    """The raw fixed-point solve of one co-run phase over warm measurements."""
    runner = active_runner()
    leaves = _corun_leaves()
    uncontended = runner.run_leaves(leaves)
    gpu = leaves[0][1].gpu

    solution = solve_scenario_contention(
        runner, gpu, [(leaves, uncontended)], ContentionModel()
    )[0]

    assert solution.converged
    assert all(stats.ipc > 0 for stats in solution.stats)
