"""Quick spot check of the Figure 12 headline: Morpheus vs the baselines."""

from __future__ import annotations

import os
import time

from repro.analysis.metrics import geometric_mean
from repro.runner import ExperimentRunner, ExperimentSpec, using_runner
from repro.systems.fidelity import BENCH_FIDELITY

APPS = ["cfd", "kmeans", "p-bfs", "sgem", "spmv", "page-r"]
SYSTEMS = ["BL", "IBL", "IBL-4X-LLC", "Unified-SM-Mem", "Morpheus-Basic", "Morpheus-ALL"]


def main() -> None:
    start = time.time()
    spec = ExperimentSpec(systems=tuple(SYSTEMS), applications=tuple(APPS), fidelity=BENCH_FIDELITY)
    runner = ExperimentRunner(max_workers=os.cpu_count() or 1)
    with using_runner(runner):
        result = runner.run_plan(spec)
    speedups = {name: [] for name in SYSTEMS}
    for app in APPS:
        by_system = result.by_application(app)
        base = by_system["BL"]
        row = []
        for system in SYSTEMS:
            stats = by_system[system]
            sp = base.execution_cycles / stats.execution_cycles
            speedups[system].append(sp)
            row.append(f"{system}:{sp:.2f}(c{stats.num_compute_sms}/$ {stats.num_cache_sms})")
        print(f"{app:>8s} " + "  ".join(row))
    print("gmean speedups over BL:")
    for system in SYSTEMS:
        print(f"  {system:<16s} {geometric_mean(speedups[system]):.3f}")
    print(f"elapsed {time.time() - start:.0f}s (cache: {runner.cache_dir})")


if __name__ == "__main__":
    main()
