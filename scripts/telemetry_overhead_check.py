"""Smoke-check that disabled telemetry stays (nearly) free on the hot path.

Telemetry is off by default, and the instrumented hot paths guard every
publication behind one ``telemetry().enabled`` read — so the disabled cost
must be indistinguishable from uninstrumented code.  This script regression
-tests that promise: it times the warm scoring benchmark (a loop of
score-tier lookups through
:meth:`~repro.runner.runner.ExperimentRunner.simulate`, which is a one-leaf
:meth:`~repro.runner.runner.ExperimentRunner.run_leaves` batch, over the
envelope variants of one replayed leaf) twice as matched pairs —

* **shipped** — the code as-is, telemetry disabled (the default),
* **floor** — the same code with the ``telemetry`` accessor in every
  instrumented module patched to return a bare ``enabled=False`` stub,
  the cheapest possible guard,

and fails if the shipped path is more than ``--tolerance`` (default 2%)
slower than the floor.  If a change ever makes the disabled path allocate
spans, hit the environment per call, or otherwise grow work, the ratio
blows past the gate and CI catches it.

Usage::

    PYTHONPATH=src python scripts/telemetry_overhead_check.py
        [--points N] [--repeats N] [--tolerance FRACTION]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
import tempfile
import time

import repro.runner.cache as cache_module
import repro.runner.runner as runner_module
import repro.scenarios.contention as contention_module
from repro.runner import ExperimentRunner
from repro.sim.performance_model import ResourceEnvelope
from repro.sim.simulator import SimulationConfig
from repro.telemetry import telemetry
from repro.workloads.applications import get_application

#: Tiny replay sizing: scoring cost is trace-length independent, so only
#: the one-off warm-up replay shrinks.
TINY = dict(capacity_scale=1.0 / 64.0, trace_accesses=800, warmup_accesses=200)

#: Modules whose ``telemetry`` accessor the floor variant stubs out.
INSTRUMENTED_MODULES = (runner_module, cache_module, contention_module)


class _FloorTelemetry:
    """The cheapest possible disabled telemetry: one false attribute."""

    __slots__ = ()
    enabled = False


_FLOOR = _FloorTelemetry()


def _variants(points: int):
    base = SimulationConfig(
        num_compute_sms=34,
        power_gate_unused=True,
        system_name="telemetry-overhead",
        seed=1,
        **TINY,
    )
    return [
        dataclasses.replace(
            base,
            envelope=ResourceEnvelope(
                dram_bandwidth_share=0.1 + 0.9 * ((index * 37 % points) + 1) / points,
                llc_bandwidth_share=0.1 + 0.9 * ((index * 59 % points) + 1) / points,
            ),
        )
        for index in range(points)
    ]


def _time(func) -> float:
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--points", type=int, default=256, help="envelope variants per pass"
    )
    parser.add_argument(
        "--repeats", type=int, default=25, help="matched (shipped, floor) pairs"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.02,
        help="maximum allowed fractional overhead (default 0.02 = 2%%)",
    )
    args = parser.parse_args(argv)

    if telemetry().enabled:
        print(
            "FAIL: telemetry is enabled (REPRO_TELEMETRY=1?) — this check "
            "times the disabled path",
            file=sys.stderr,
        )
        return 1

    profile = get_application("kmeans")
    variants = _variants(args.points)

    with tempfile.TemporaryDirectory(prefix="repro-telemetry-overhead-") as cache_dir:
        runner = ExperimentRunner(cache_dir=cache_dir, max_workers=0)
        # One replay, then warm the stats tier so the timed loop is pure
        # score-tier lookups — the guard-dense hot path.
        for variant in variants:
            runner.simulate(profile, variant)

        def workload():
            for variant in variants:
                runner.simulate(profile, variant)

        def floor_workload():
            originals = [module.telemetry for module in INSTRUMENTED_MODULES]
            try:
                for module in INSTRUMENTED_MODULES:
                    module.telemetry = lambda: _FLOOR
                return _time(workload)
            finally:
                for module, original in zip(INSTRUMENTED_MODULES, originals):
                    module.telemetry = original

        # One discarded warm-up pair, then alternate the in-pair order so a
        # systematic first-runner advantage cancels instead of biasing.
        workload(), floor_workload()
        shipped_samples, floor_samples = [], []
        for pair in range(max(1, args.repeats)):
            if pair % 2 == 0:
                shipped_samples.append(_time(workload))
                floor_samples.append(floor_workload())
            else:
                floor_samples.append(floor_workload())
                shipped_samples.append(_time(workload))

    # Matched-pairs median ratio: each (shipped, floor) pair shares its
    # thermal/scheduling state, so the per-pair ratio cancels clock drift
    # that would swamp a min-vs-min comparison at this effect size.
    overhead = (
        statistics.median(
            shipped / floor
            for shipped, floor in zip(shipped_samples, floor_samples)
        )
        - 1.0
    )
    report = {
        "points": args.points,
        "repeats": args.repeats,
        "shipped_seconds": min(shipped_samples),
        "shipped_seconds_median": statistics.median(shipped_samples),
        "floor_seconds": min(floor_samples),
        "floor_seconds_median": statistics.median(floor_samples),
        "overhead_fraction": overhead,
        "tolerance": args.tolerance,
    }
    print(json.dumps(report, indent=2, sort_keys=True))

    if overhead > args.tolerance:
        print(
            f"FAIL: disabled telemetry adds {overhead * 100.0:.2f}% to the "
            f"scoring benchmark (tolerance {args.tolerance * 100.0:.1f}%)",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: disabled telemetry adds {overhead * 100.0:.2f}% "
        f"(tolerance {args.tolerance * 100.0:.1f}%)",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
