"""Machine-readable performance benchmarks: design-space search and the runner pool.

``--benchmark search`` (the default) times a fixed-seed warm design-space
search (``repro.search``) over the scenario tier — steps/sec plus the
scenario and in-loop memo hit rates, with the zero-replay-miss contract
asserted — and writes ``BENCH_search.json``.

``--benchmark runner`` times a cold batch of kmeans leaves on
``ExperimentRunner`` at 1 worker (in-process) vs ``--workers`` pool workers
(fresh cache and fresh pool per timed run, matched pairs), asserts the
pooled run is bit-identical to a serial one with zero duplicate replays,
and writes ``BENCH_runner.json`` with each side's median and quartiles.
It records ``cpu_count``, because the pool never runs more workers than
the host has cores.

Usage::

    PYTHONPATH=src python scripts/bench_report.py
        [--benchmark search|runner] [--smoke] [--workers N] [--repeats N]
        [--steps N] [--output FILE]

``--smoke`` shrinks the trace and repeat counts so the whole script runs in
a few seconds (the CI configuration).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.runner import ExperimentRunner
from repro.sim.simulator import SimulationConfig
from repro.systems.fidelity import FAST_FIDELITY, Fidelity
from repro.workloads.applications import get_application

#: Tiny replay sizing for ``--smoke``.
SMOKE_FIDELITY = Fidelity(
    capacity_scale=1.0 / 64.0,
    trace_accesses=800,
    warmup_accesses=200,
    search_trace_accesses=400,
    search_warmup_accesses=100,
)


def _config(fidelity: Fidelity, **kwargs) -> SimulationConfig:
    defaults = dict(
        num_compute_sms=34,
        power_gate_unused=True,
        system_name="bench-report",
        seed=1,
    )
    defaults.update(kwargs)
    return fidelity.config(**defaults)


def _quartiles(samples):
    """``{"q1", "median", "q3"}`` of ``samples`` (seconds)."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def _paired_speedup(func_a, func_b, repeats: int, rounds: int = 1):
    """Time two rivals as matched pairs (A, B, A, B, ...).

    On a machine with frequency scaling, timing all of A before all of B
    lets a clock excursion land entirely on one side.  Sampling the two
    back to back makes each (A, B) pair share its thermal state, so the
    per-pair ratio ``a / b`` cancels the clock out; the median over pairs
    is the robust matched-pairs estimate of the true speedup.  The pairs
    are spread over ``rounds`` sleep-separated bursts so a transient host
    excursion (shared-tenant pressure on a virtualized box) cannot cover
    the whole sampling window.  Returns ``(quartiles_a, quartiles_b,
    speedup)`` over the raw seconds.
    """
    samples_a, samples_b = [], []
    per_round = max(1, repeats // max(1, rounds))
    for round_index in range(max(1, rounds)):
        if round_index:
            time.sleep(0.4)
        for _ in range(per_round):
            start = time.perf_counter()
            func_a()
            samples_a.append(time.perf_counter() - start)
            start = time.perf_counter()
            func_b()
            samples_b.append(time.perf_counter() - start)
    speedup = statistics.median(
        a / b for a, b in zip(samples_a, samples_b)
    )
    return _quartiles(samples_a), _quartiles(samples_b), speedup


def benchmark_runner_pool(
    fidelity: Fidelity, leaves_count: int, workers: int, repeats: int, rounds: int = 1
):
    """Cold-batch leaf throughput: 1 worker vs ``workers`` pool workers.

    Every timed run starts from a fresh cache directory (cold by
    construction) and a fresh runner, so the multi-worker side pays for
    starting its pool, shipping each missing replay to a worker, and
    storing the measurements the workers send back.  With one worker the
    runner replays in-process.  Bit-identity against a serial run and the
    zero-duplicate-replay invariant are asserted before timing.
    """
    profile = get_application("kmeans")
    configs = [_config(fidelity, seed=seed) for seed in range(1, leaves_count + 1)]

    def cold_run(num_workers: int):
        with tempfile.TemporaryDirectory(prefix="repro-bench-runner-") as cache_dir:
            with ExperimentRunner(cache_dir=cache_dir, max_workers=num_workers) as runner:
                stats = runner.run_configs(profile, configs)
        return stats, runner.replays

    with tempfile.TemporaryDirectory(prefix="repro-bench-serial-") as cache_dir:
        serial = ExperimentRunner(cache_dir=cache_dir, max_workers=0)
        expected = serial.run_configs(profile, configs)
    actual, replays = cold_run(workers)
    mismatches = sum(
        dataclasses.asdict(a) != dataclasses.asdict(b)
        for a, b in zip(actual, expected)
    )
    if mismatches:
        raise AssertionError(
            f"pooled run diverged from serial on {mismatches}/{leaves_count} "
            "leaves — the bit-identity contract is broken"
        )
    if replays != leaves_count:
        raise AssertionError(
            f"pooled run performed {replays} replays for {leaves_count} distinct "
            "replay keys — the zero-duplicate-replay contract is broken"
        )

    single, multi, speedup = _paired_speedup(
        lambda: cold_run(1), lambda: cold_run(workers), repeats, rounds
    )
    cpu_count = os.cpu_count() or 1
    report = {
        "leaves": leaves_count,
        "workers": workers,
        "cpu_count": cpu_count,
        "single_worker_seconds": single,
        "multi_worker_seconds": multi,
        "single_worker_leaves_per_second": leaves_count / single["median"],
        "multi_worker_leaves_per_second": leaves_count / multi["median"],
        "speedup": speedup,
        "bit_identical": True,
        "duplicate_replays": 0,
    }
    if cpu_count < workers:
        report["note"] = (
            f"host has {cpu_count} CPU(s); the pool runs at most {cpu_count} "
            f"of the {workers} requested workers"
        )
    return report


def benchmark_search(fidelity: Fidelity, steps: int, seed: int, agent_name: str):
    """Warm-search throughput: steps/sec and cache hit rates of a fixed-seed run.

    A warm-up pass pays every replay/score cost once; the timed pass then
    re-runs the identical seeded search through a fresh runner sharing the
    cache directory, so the measured rate is the steady-state cost of a
    search step — scenario-tier JSON loads plus agent bookkeeping.  The
    zero-replay-miss contract is asserted on the timed pass.
    """
    from repro.search import ScenarioSearchProblem, make_agent, run_search

    with tempfile.TemporaryDirectory(prefix="repro-bench-search-") as cache_dir:
        warm_started = time.perf_counter()
        warm_runner = ExperimentRunner(cache_dir=cache_dir, max_workers=0)
        warm_problem = ScenarioSearchProblem(runner=warm_runner, fidelity=fidelity)
        warm_problem.baseline()
        run_search(
            warm_problem, make_agent(agent_name, warm_problem.space, seed=seed), steps
        )
        warmup_seconds = time.perf_counter() - warm_started

        runner = ExperimentRunner(cache_dir=cache_dir, max_workers=0)
        problem = ScenarioSearchProblem(runner=runner, fidelity=fidelity)
        baseline = problem.baseline()
        agent = make_agent(agent_name, problem.space, seed=seed)
        started = time.perf_counter()
        result = run_search(problem, agent, steps, baseline=baseline)
        seconds = time.perf_counter() - started

        if runner.replays or runner.disk_cache.replay_misses:
            raise AssertionError(
                f"warm search touched the replay tier ({runner.replays} replays, "
                f"{runner.disk_cache.replay_misses} misses) — the score-tier-only "
                "contract is broken"
            )
        counters = runner.disk_cache.tier_counters()

    scenario_lookups = counters["scenario_hits"] + counters["scenario_misses"]
    return {
        "agent": agent_name,
        "steps": steps,
        "seed": seed,
        "warmup_seconds": warmup_seconds,
        "seconds": seconds,
        "steps_per_second": steps / seconds,
        "baseline_fitness": result.baseline_fitness,
        "best_fitness": result.best_fitness,
        "evaluations": result.evaluations,
        "memo_hits": result.memo_hits,
        "memo_hit_rate": result.memo_hit_rate,
        "scenario_tier_hits": counters["scenario_hits"],
        "scenario_tier_misses": counters["scenario_misses"],
        "scenario_tier_hit_rate": (
            counters["scenario_hits"] / scenario_lookups if scenario_lookups else 0.0
        ),
        "replay_misses": 0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--benchmark",
        choices=("search", "runner"),
        default="search",
        help="which benchmark to run (default: search)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny traces and few repeats (CI mode; seconds, not minutes)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=max(2, os.cpu_count() or 1),
        help="runner: pool workers on the multi-worker side (default: CPU count, min 2)",
    )
    parser.add_argument(
        "--leaves",
        type=int,
        default=None,
        help="runner: cold leaves per timed run (default 16; 6 with --smoke)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="runner: timing repeats (matched pairs; median ratio reported)",
    )
    parser.add_argument(
        "--steps",
        type=int,
        default=None,
        help="search: steps in the timed search (default 200; 40 with --smoke)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help=(
            "where to write the JSON report ('-' prints to stdout only; "
            "default BENCH_<benchmark>.json)"
        ),
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="runner: sleep-separated sampling bursts the repeats are spread over",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="BENCH_trace",
        default=None,
        metavar="DIR",
        help=(
            "run the benchmark under telemetry, writing a span trace to DIR "
            "(default BENCH_trace) and attaching the per-stage time "
            "breakdown to the JSON report"
        ),
    )
    args = parser.parse_args(argv)

    if args.workers < 2:
        parser.error("--workers must be >= 2 (it is compared against 1 worker)")
    fidelity = SMOKE_FIDELITY if args.smoke else FAST_FIDELITY
    output = args.output if args.output is not None else f"BENCH_{args.benchmark}.json"

    trace_dir = Path(args.trace) if args.trace else None
    if trace_dir is not None:
        from repro.telemetry import Telemetry

        trace_dir.mkdir(parents=True, exist_ok=True)
        # A re-run must not merge with a stale trace of the previous one.
        for stale in trace_dir.glob("events-*.jsonl"):
            stale.unlink()
        trace_context = Telemetry(directory=trace_dir, enabled=True)
    else:
        trace_context = contextlib.nullcontext()

    with trace_context:
        if args.benchmark == "search":
            steps = args.steps if args.steps is not None else (40 if args.smoke else 200)
            report = {
                "benchmark": "search",
                "smoke": args.smoke,
                "warm_search": benchmark_search(
                    fidelity, steps, seed=7, agent_name="genetic"
                ),
            }
        else:
            repeats = args.repeats if args.repeats is not None else (3 if args.smoke else 15)
            rounds = args.rounds if args.rounds is not None else (1 if args.smoke else 3)
            leaves = args.leaves if args.leaves is not None else (6 if args.smoke else 16)
            report = {
                "benchmark": "runner",
                "smoke": args.smoke,
                "repeats": repeats,
                "rounds": rounds,
                "cold_batch_throughput": benchmark_runner_pool(
                    fidelity, leaves, args.workers, repeats, rounds
                ),
            }

    if trace_dir is not None:
        from repro.telemetry.report import summarize

        trace_summary = summarize(trace_dir)
        report["trace"] = {
            "directory": str(trace_dir),
            "stages": trace_summary["stages"],
            "cache": trace_summary["cache"],
            "histograms": trace_summary["histograms"],
        }

    rendered = json.dumps(report, indent=2, sort_keys=True)
    print(rendered)
    if output != "-":
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")

    if args.benchmark == "search":
        warm = report["warm_search"]
        print(
            f"\nwarm search: {warm['steps_per_second']:.0f} steps/s over "
            f"{warm['steps']} steps (scenario-tier hit rate "
            f"{warm['scenario_tier_hit_rate']:.2%}, memo hit rate "
            f"{warm['memo_hit_rate']:.2%}, zero replay misses)",
            file=sys.stderr,
        )
    else:
        cold = report["cold_batch_throughput"]
        print(
            f"\ncold batch on the pool: {cold['speedup']:.2f}x at "
            f"{cold['workers']} workers over 1 "
            f"({cold['multi_worker_leaves_per_second']:.1f} vs "
            f"{cold['single_worker_leaves_per_second']:.1f} leaves/s on a "
            f"{cold['cpu_count']}-CPU host)",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
