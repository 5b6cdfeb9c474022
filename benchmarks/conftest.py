"""Shared configuration for the figure checks.

Every check regenerates one of the paper's tables or figures, prints the
corresponding rows/series and asserts the paper's orderings:

* every simulation flows through one session-wide
  :class:`~repro.runner.runner.ExperimentRunner`, whose content-addressed
  on-disk cache is shared between figures that overlap (Fig. 12
  top/bottom, Table 3, §7.4) *and* between sessions, so a warm re-run
  replays nothing;
* that cache lives in its own directory (``.repro_cache-bench/`` by
  default, ``REPRO_BENCH_CACHE_DIR`` to move it), so the benchmark-fidelity
  entries stay out of a user's cache — the default ``.repro_cache/`` or
  wherever ``REPRO_CACHE_DIR`` points — and can be deleted on their own;
* by default a representative subset of applications is used.  Set
  ``REPRO_BENCH_FULL=1`` to sweep all 17 applications (slower).
"""

from __future__ import annotations

import os

import pytest

from repro.runner import ExperimentRunner, set_active_runner
from repro.systems.fidelity import BENCH_FIDELITY
from repro.workloads.applications import COMPUTE_BOUND_APPS, MEMORY_BOUND_APPS

#: Benchmark-owned cache directory (deliberately NOT ``REPRO_CACHE_DIR``,
#: which users export for normal runs).
BENCH_CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE_DIR", ".repro_cache-bench")

FULL_SWEEP = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

#: Representative subset: saturating, thrashing and compute-bound workloads.
SUBSET_MEMORY_BOUND = ["p-bfs", "cfd", "sgem", "kmeans", "spmv", "page-r"]
SUBSET_COMPUTE_BOUND = ["mri-q"]

BENCH_MEMORY_BOUND = MEMORY_BOUND_APPS if FULL_SWEEP else SUBSET_MEMORY_BOUND
BENCH_COMPUTE_BOUND = COMPUTE_BOUND_APPS if FULL_SWEEP else SUBSET_COMPUTE_BOUND
BENCH_ALL_APPS = BENCH_MEMORY_BOUND + BENCH_COMPUTE_BOUND


@pytest.fixture(scope="session", autouse=True)
def bench_runner():
    """Session-wide runner: disk-cached, parallel where plans allow it."""
    runner = ExperimentRunner(
        cache_dir=BENCH_CACHE_DIR,
        max_workers=int(
            os.environ.get("REPRO_RUNNER_WORKERS", str(os.cpu_count() or 1))
        ),
    )
    previous = set_active_runner(runner)
    yield runner
    set_active_runner(previous)

