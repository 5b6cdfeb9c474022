"""The benchmark workloads: what one timed operation runs and how it is checked.

Every operation is a *cold* run of a study a user of the simulator runs:
fresh runner, empty on-disk cache, empty trace cache, so trace generation,
hierarchy replay, scoring and cache writes all happen inside it.  The
workloads differ in which layers they stress:

* ``fig12`` — one Figure-12 row at the repository's benchmark fidelity: an
  application evaluated on BL, IBL and Morpheus-ALL, including both
  systems' best-operating-point searches.  Conventional replays (BL, IBL)
  and Morpheus replays (controller, hit/miss predictor, extended LLC)
  in the proportions of the real figure.
* ``fleet`` — a 5,000-phase fleet timeline on Morpheus-Basic under the
  dynamic capacity manager, folded into streaming aggregates.  Few distinct
  leaves to replay (phase-signature dedup) but thousands of phases to plan,
  lower, solve for contention and aggregate.

Inputs come only from the seed: it shuffles the application order and is
the trace-generation seed of every leaf (and the fleet's arrival-process
seed), so a seed always produces the same work and the same outputs.

Each workload has ``run`` (the timed operation, returning its raw result)
and ``inspect`` (untimed: the comparable output plus every invariant the
raw result breaks).
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from typing import Any, List

from repro.analysis.scenarios import (
    ScenarioAccumulator,
    per_app_timelines,
    scenario_energy_j,
    time_weighted_ipc,
    transition_overheads,
)
from repro.gpu.config import RTX3080_CONFIG
from repro.runner import ExperimentRunner, ExperimentSpec
from repro.scenarios import ScenarioEngine, fleet
from repro.sim.stats import SimulationStats
from repro.systems.fidelity import Fidelity

#: The trace sizing of every figure the repository regenerates
#: (``BENCH_FIDELITY`` in ``benchmarks/conftest.py``, also the sizing of
#: ``scripts/spotcheck_fig12.py``).
BENCH_FIDELITY = Fidelity(
    capacity_scale=1.0 / 32.0,
    trace_accesses=8_000,
    warmup_accesses=3_000,
    search_trace_accesses=4_000,
    search_warmup_accesses=1_500,
)

#: The memory-bound applications the repository's figure benchmarks use by
#: default (``SUBSET_MEMORY_BOUND`` in ``benchmarks/conftest.py``).
BENCH_APPS = ("p-bfs", "cfd", "sgem", "kmeans", "spmv", "page-r")
FIG12_SYSTEMS = ("BL", "IBL", "Morpheus-ALL")

#: The fleet timeline of ``scripts/bench_report.py --benchmark scenarios``
#: (5,000 phases), with the trace sizing of its ``--smoke`` mode so the
#: scenario layers, not the replays, carry most of an operation.
FLEET_PHASES = 5_000
FLEET_FIDELITY = Fidelity(
    capacity_scale=1.0 / 64.0,
    trace_accesses=800,
    warmup_accesses=200,
    search_trace_accesses=400,
    search_warmup_accesses=100,
)
FLEET_SYSTEM = "Morpheus-Basic"

#: Cache-mode SMs may take at most 75% of the GPU (§4.1.3).
MAX_CACHE_SMS = int(0.75 * RTX3080_CONFIG.num_sms)

_RATE_FIELDS = (
    "l1_hit_rate",
    "llc_hit_rate",
    "conventional_llc_hit_rate",
    "extended_llc_hit_rate",
    "extended_fraction",
    "predicted_miss_fraction",
    "predictor_false_positive_rate",
)


@dataclass
class Outcome:
    """One operation's comparable output, replay count and broken invariants."""

    output: Any
    replays: int
    problems: List[str] = field(default_factory=list)


def _runner(cache_dir: str) -> ExperimentRunner:
    """A serial runner with its own on-disk cache (the default user setup)."""
    return ExperimentRunner(
        cache_dir=cache_dir, max_workers=0, use_disk_cache=True, backend="local"
    )


def stats_problems(stats: SimulationStats, label: str) -> List[str]:
    """Invariants every scored leaf must satisfy."""
    problems = []
    for name in ("ipc", "execution_cycles", "instructions", "performance_per_watt"):
        value = getattr(stats, name)
        if not (math.isfinite(value) and value > 0):
            problems.append(f"{label}: {name}={value!r} is not positive and finite")
    for name in _RATE_FIELDS:
        value = getattr(stats, name)
        if not 0.0 <= value <= 1.0:
            problems.append(f"{label}: {name}={value!r} outside [0, 1]")
    used = stats.num_compute_sms + stats.num_cache_sms + stats.num_gated_sms
    if used > RTX3080_CONFIG.num_sms:
        problems.append(f"{label}: {used} SMs assigned, the GPU has {RTX3080_CONFIG.num_sms}")
    if stats.num_cache_sms > MAX_CACHE_SMS:
        problems.append(f"{label}: {stats.num_cache_sms} cache-mode SMs exceed the cap")
    if stats.num_cache_sms == 0 and stats.extended_fraction != 0.0:
        problems.append(f"{label}: extended-LLC traffic without cache-mode SMs")
    if stats.predictor_false_negatives:
        problems.append(
            f"{label}: {stats.predictor_false_negatives} hit/miss predictor "
            "false negatives (the Bloom predictor has none)"
        )
    if stats.energy is None or not stats.energy.total_j > 0:
        problems.append(f"{label}: no positive energy breakdown")
    return problems


class Fig12:
    """One cold Figure-12 row per operation."""

    name = "fig12"

    def __init__(self, seed: int) -> None:
        apps = list(BENCH_APPS)
        random.Random(seed).shuffle(apps)
        self.specs = [
            ExperimentSpec(
                systems=FIG12_SYSTEMS,
                applications=(app,),
                fidelity=BENCH_FIDELITY,
                seeds=(seed,),
            )
            for app in apps
        ]

    def __len__(self) -> int:
        return len(self.specs)

    def run(self, index: int, cache_dir: str):
        runner = _runner(cache_dir)
        return runner.run_plan(self.specs[index % len(self.specs)]), runner.replays

    def inspect(self, index: int, raw) -> Outcome:
        result, replays = raw
        problems = []
        for cell, stats in result:
            problems += stats_problems(stats, f"{cell.system}/{cell.application}")
        baseline = result.get("BL", self.specs[index % len(self.specs)].applications[0])
        if baseline.num_compute_sms != RTX3080_CONFIG.num_sms or baseline.num_gated_sms:
            problems.append("BL must compute on every SM with none gated")
        output = {
            (cell.system, cell.application): dataclasses.asdict(stats)
            for cell, stats in result
        }
        return Outcome(output, replays, problems)


class Fleet:
    """One cold fleet timeline, run and aggregated, per operation."""

    name = "fleet"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.scenario = fleet(num_phases=FLEET_PHASES, seed=seed)

    def __len__(self) -> int:
        return 1

    def run(self, index: int, cache_dir: str):
        runner = _runner(cache_dir)
        engine = ScenarioEngine(runner=runner, fidelity=FLEET_FIDELITY, seed=self.seed)
        # A fresh spec, as in a new process: the spec memoizes its
        # scenario key, which each run must compute over all phases again.
        result = engine.run(dataclasses.replace(self.scenario), FLEET_SYSTEM)
        aggregates = ScenarioAccumulator.from_result(result).aggregates()
        return result, aggregates, runner.replays

    def inspect(self, index: int, raw) -> Outcome:
        result, aggregates, replays = raw
        problems = []
        if aggregates.phases != FLEET_PHASES:
            problems.append(f"{aggregates.phases} phases aggregated, not {FLEET_PHASES}")
        signatures = result.signatures
        if signatures is None:
            problems.append("the run was not deduplicated by phase signature")
            signatures = ()
        elif sum(execution.count for execution in signatures) != FLEET_PHASES:
            problems.append("signature phase counts do not add up to the timeline")
        if len({execution.signature for execution in signatures}) != len(signatures):
            problems.append("two signature executions share one signature")
        # The streaming aggregates must match the list-based reductions bit
        # for bit.
        expected = {
            "time-weighted IPC": (aggregates.time_weighted_ipc, time_weighted_ipc(result)),
            "energy": (aggregates.energy_j, scenario_energy_j(result)),
            "transition overheads": (aggregates.transitions, transition_overheads(result)),
            "per-app timelines": (aggregates.timelines, per_app_timelines(result)),
        }
        for name, (streamed, listed) in expected.items():
            if streamed != listed:
                problems.append(f"streaming {name} differ from the list-based reduction")
        ipc = aggregates.time_weighted_ipc
        if not (math.isfinite(ipc) and ipc > 0):
            problems.append(f"time-weighted IPC {ipc!r} is not positive and finite")
        if not aggregates.energy_j > 0:
            problems.append(f"timeline energy {aggregates.energy_j!r} is not positive")
        for execution in signatures:
            for resident in execution.residents:
                problems += stats_problems(resident.stats, f"fleet/{resident.application}")
        return Outcome(aggregates, replays, problems)


WORKLOADS = {workload.name: workload for workload in (Fig12, Fleet)}
