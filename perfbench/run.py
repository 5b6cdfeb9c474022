#!/usr/bin/env python3
"""Host-time benchmark of the Morpheus simulator.

Run from the repository root::

    python3 perfbench/run.py --workload fig12 --seed 1 --seconds 40 --trace 0

``--workload`` is ``fig12`` or ``fleet`` (see ``perfbench/workloads.py``).
A run:

1. times the set-up — a fresh interpreter importing the simulator from
   ``src/`` and building the workload's inputs from ``--seed`` — in
   ``SETUP_SAMPLES`` child processes and keeps the median;
2. runs one untimed warm-up operation (first-call paths, lazy imports);
3. for ``--seconds`` seconds repeats the workload's operation *cold* (fresh
   runner, empty on-disk cache under ``.bench_build/``, empty trace cache),
   timing each with :class:`HostClock`, then re-runs it *warm* from the
   cache it left behind, as often as fits in ``WARM_SECONDS``, timing
   each re-run too;
4. checks every output: the workload's invariants, warm output equal to
   cold output with zero replays, and every operation on the same input
   producing the same output;
5. prints one JSON line: ``correct``, ``attempted``/``failed`` operations
   and the metrics.

With ``--trace 0`` the metrics are end to end: median cold-operation
latency, median warm re-run latency, peak resident memory and set-up time.
With ``--trace 1`` the same loop runs with the layer entry points of
``perfbench/layers.py`` wrapped, and the metrics are per layer and per
cold operation: self time of each layer, replay cost per simulated access,
and work counts.  An entry point of ``perfbench/layers.py`` that the
simulator no longer has is printed to stderr and makes the run incorrect.

Host speed.  On a shared host the same operation can take twice as long
when neighbours are busy, and the speed changes within a second, in CPU
time as much as in wall-clock time.  So times are reported at a reference
host speed, measured by :func:`calibrate`, a fixed pure-Python loop that
no change to the simulator can affect: :class:`HostClock` recalibrates
every ``CALIBRATION_INTERVAL_S`` seconds while an operation runs and
scales each stretch by ``REFERENCE_CALIBRATION_S / calibration time``.
On an idle reference host the scale factor is about 1; stderr shows the
raw medians and the factors.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: Child-process set-ups timed per run (the median is reported).
SETUP_SAMPLES = 7

#: :func:`calibrate` on an idle reference host (2-vCPU Xeon at 2.1 GHz,
#: CPython 3.11).  Only the unit of the reported times depends on it.
REFERENCE_CALIBRATION_S = 0.008

CALIBRATION_ACCESSES = 20_000

#: Seconds between host-speed calibrations inside a timed operation.
CALIBRATION_INTERVAL_S = 0.25

#: Wall-clock budget for the warm re-runs after each cold operation.  A warm
#: re-run takes milliseconds, so several give a steadier median.
WARM_SECONDS = 0.25


def calibrate() -> float:
    """Seconds a fixed reference loop takes right now (the host's speed).

    The loop replays a fixed pseudo-random block stream through a small
    LRU set-associative cache — list and integer work like the simulator's
    own, but none of its code.
    """
    sets = [[] for _ in range(64)]
    state = 12345
    start = time.perf_counter()
    for _ in range(CALIBRATION_ACCESSES):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        block = state % 3000
        ways = sets[block & 63]
        if block in ways:
            ways.remove(block)
        elif len(ways) == 8:
            del ways[0]
        ways.append(block)
    return time.perf_counter() - start


class HostClock:
    """Times a block in seconds at the reference host speed.

    Calibrating only at the two ends of a multi-second operation corrects
    little, because the host's speed changes within it.  While the block
    runs, SIGALRM interrupts it every ``CALIBRATION_INTERVAL_S`` seconds to
    run :func:`calibrate`; each stretch between two calibrations is scaled
    by the mean of their speeds.  The calibrations are left out of the time,
    and ``exclude`` is told their duration so a tracer can leave them out
    of the span they interrupted.
    """

    def __init__(self, exclude=None) -> None:
        self.exclude = exclude
        #: Time at the reference host speed.
        self.seconds = 0.0
        #: Wall-clock time, calibrations left out.
        self.raw_seconds = 0.0

    def __enter__(self) -> "HostClock":
        self._scale = REFERENCE_CALIBRATION_S / calibrate()
        self._running = True
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S)
        return self

    def _lap(self) -> None:
        end = time.perf_counter()
        scale = REFERENCE_CALIBRATION_S / calibrate()
        self.raw_seconds += end - self._start
        self.seconds += (end - self._start) * (self._scale + scale) / 2
        self._scale = scale
        self._start = time.perf_counter()
        if self.exclude is not None:
            self.exclude(self._start - end)

    def _tick(self, signum, frame) -> None:
        # One-shot timer, re-armed here, so a slow calibration cannot be
        # interrupted by the next tick.
        if self._running:
            self._lap()
            signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S)

    def __exit__(self, *exc) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._lap()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def time_setup(args):
    """(wall-clock, speed scale) of a child process that imports and builds inputs."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-only",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ]
    before = calibrate()
    # No timeout: Popen.wait(timeout) polls in up to 50 ms steps, which
    # would quantize the measurement.
    start = time.perf_counter()
    subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    return elapsed, 2 * REFERENCE_CALIBRATION_S / (before + calibrate())


def measure(workload, seconds: float, recorder, tracing: bool, scratch: Path) -> dict:
    """The warm-up plus the timed loop; returns the samples and counts.

    Per-layer self times are scaled per operation, by that operation's
    ratio of reference-speed to wall-clock time.
    """
    from repro.workloads.generator import SHARED_TRACE_CACHE

    cold_times, raw_cold_times, warm_times = [], [], []
    layer_seconds = dict.fromkeys(recorder.self_seconds, 0.0)
    references = {}
    attempted = failed = replays = 0
    correct = True
    deadline = None
    index = 0
    while deadline is None or time.perf_counter() < deadline:
        op_dir = str(scratch / f"op-{index}")
        SHARED_TRACE_CACHE.clear()
        gc.collect()
        traced_before = dict(recorder.self_seconds)
        recorder.active = tracing and index > 0
        try:
            with HostClock(recorder.exclude) as cold:
                raw = workload.run(index, op_dir)
            recorder.active = False
            warm_deadline = time.perf_counter() + WARM_SECONDS
            warm_raws, op_warm_times = [], []
            while not warm_raws or time.perf_counter() < warm_deadline:
                with HostClock() as warm:
                    warm_raws.append(workload.run(index, op_dir))
                op_warm_times.append(warm.seconds)
            outcome = workload.inspect(index, raw)
            warm_outcomes = [workload.inspect(index, warm_raw) for warm_raw in warm_raws]
        except Exception as error:  # a crashing operation is a failed one
            recorder.active = False
            traceback.print_exc()
            problems = [f"raised {error!r}"]
            cold = None
        else:
            problems = list(outcome.problems)
            for warm_outcome in warm_outcomes:
                problems += warm_outcome.problems
                if warm_outcome.replays:
                    problems.append(f"warm re-run replayed {warm_outcome.replays} leaves")
                if warm_outcome.output != outcome.output:
                    problems.append("warm re-run output differs from the cold run")
            reference = references.setdefault(index % len(workload), outcome.output)
            if outcome.output != reference:
                problems.append("output differs from an earlier run of the same input")
        shutil.rmtree(op_dir, ignore_errors=True)
        for problem in problems:
            print(f"operation {index}: {problem}", file=sys.stderr)
        correct = correct and not problems
        if index == 0:
            deadline = time.perf_counter() + seconds
        else:
            attempted += 1
            failed += bool(problems)
            if cold is not None:
                cold_times.append(cold.seconds)
                raw_cold_times.append(cold.raw_seconds)
                warm_times += op_warm_times
                replays += outcome.replays
                scale = cold.seconds / cold.raw_seconds
                for layer, total in recorder.self_seconds.items():
                    layer_seconds[layer] += (total - traced_before[layer]) * scale
        index += 1
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "cold": cold_times,
        "raw_cold": raw_cold_times,
        "warm": warm_times,
        "layer_seconds": layer_seconds,
        "replays": replays,
    }


def end_to_end_metrics(samples: dict, setup: list) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "latency_ms": {"value": statistics.median(samples["cold"]) * 1e3, "unit": "ms"},
        "warm_ms": {"value": statistics.median(samples["warm"]) * 1e3, "unit": "ms"},
        "peak_rss_mib": {"value": peak_kib / 1024.0, "unit": "MiB"},
        "setup_s": {
            "value": statistics.median(wall * scale for wall, scale in setup),
            "unit": "s",
        },
    }


def per_layer_metrics(samples: dict, recorder) -> dict:
    from layers import LAYERS

    operations = len(samples["cold"])
    layer_seconds = samples["layer_seconds"]
    metrics = {
        f"{layer}_ms": {"value": layer_seconds[layer] * 1e3 / operations, "unit": "ms"}
        for layer in LAYERS
    }
    replay_seconds = sum(
        layer_seconds[layer] for layer in ("engine", "llc", "morpheus", "noc", "dram")
    )
    metrics["replay_us_per_access"] = {
        "value": replay_seconds * 1e6 / max(1, recorder.accesses),
        "unit": "us",
    }
    counts = {
        "replays": samples["replays"] / operations,
        "simulated_accesses": recorder.accesses / operations,
        "dram_accesses": recorder.calls["dram"] / operations,
        "cache_io_calls": recorder.calls["cache_io"] / operations,
    }
    for name, value in counts.items():
        metrics[name] = {"value": value, "unit": "count"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no simulator sources at {SOURCE / 'repro'}; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    # The simulator reads its runner, cache and telemetry settings from
    # REPRO_* variables; the benchmark pins all of them explicitly.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SOURCE))

    from layers import Recorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"expected one of {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.setup_only:
        WORKLOADS[args.workload](args.seed)
        return 0

    setup = [time_setup(args) for _ in range(SETUP_SAMPLES)]
    workload = WORKLOADS[args.workload](args.seed)
    recorder = Recorder()
    scratch = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    missing = recorder.install() if args.trace else []
    for entry_point in missing:
        print(f"perfbench: cannot trace missing entry point {entry_point}", file=sys.stderr)
    try:
        samples = measure(workload, args.seconds, recorder, bool(args.trace), scratch)
    finally:
        if args.trace:
            recorder.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
    if not samples["cold"]:
        print("perfbench: every operation raised", file=sys.stderr)
        return 1

    raw = samples["raw_cold"]
    scales = [cold / wall for cold, wall in zip(samples["cold"], raw)]
    print(
        f"{args.workload} seed {args.seed}: {len(raw)} cold operations, raw "
        f"median {statistics.median(raw) * 1e3:.1f} ms (max {max(raw) * 1e3:.1f}), "
        f"host-speed scale {min(scales):.2f}..{max(scales):.2f} "
        f"(median {statistics.median(scales):.2f}); raw set-up "
        f"{statistics.median(wall for wall, _ in setup):.3f} s",
        file=sys.stderr,
    )
    if args.trace:
        metrics = per_layer_metrics(samples, recorder)
    else:
        metrics = end_to_end_metrics(samples, setup)
    print(
        json.dumps(
            {
                "correct": samples["correct"] and not missing,
                "attempted": samples["attempted"],
                "failed": samples["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
