"""Analysis utilities: metrics, sweeps, re-scoring, scenarios, reports and overheads."""

from repro.analysis.latency_breakdown import LatencyBreakdown, llc_latency_timelines
from repro.analysis.metrics import geometric_mean
from repro.analysis.overheads import MorpheusOverheads, compute_overheads
from repro.analysis.report import format_series, format_table
from repro.analysis.rescoring import mlp_sweep
from repro.analysis.scenarios import (
    ScenarioAccumulator,
    ScenarioAggregates,
    SlowdownStats,
    TransitionOverheads,
    compare_runs,
    phase_table,
    scenario_energy_j,
    slowdown_stats,
    time_weighted_ipc,
    transition_overheads,
    weighted_percentile,
)
from repro.analysis.sweep import llc_scaling_sweep, sm_count_sweep

__all__ = [
    "LatencyBreakdown",
    "MorpheusOverheads",
    "ScenarioAccumulator",
    "ScenarioAggregates",
    "SlowdownStats",
    "TransitionOverheads",
    "compare_runs",
    "compute_overheads",
    "format_series",
    "format_table",
    "geometric_mean",
    "llc_latency_timelines",
    "llc_scaling_sweep",
    "mlp_sweep",
    "phase_table",
    "scenario_energy_j",
    "slowdown_stats",
    "sm_count_sweep",
    "time_weighted_ipc",
    "transition_overheads",
    "weighted_percentile",
]
