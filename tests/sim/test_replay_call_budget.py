"""Per-access call budget and cyclic garbage of the hierarchy replay.

Counts the Python function calls one leaf replay makes per simulated access
(warm-up included) under ``sys.setprofile``.  The count is deterministic and
free of host noise, so it pins the per-layer cost of the replay loop: a
change that adds calls to every access shows up here before it shows up in
a timed benchmark.  The same leaves must leave no garbage that only the
cyclic collector can free.  The leaves use the benchmark sizing (kmeans at
1/32 scale, 3,000 warm-up and 8,000 measured accesses, seed 1).
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.core.config import MORPHEUS_ALL
from repro.sim.simulator import GPUSimulator, SimulationConfig
from repro.workloads.applications import get_application
from repro.workloads.generator import TraceCache

_SIZING = dict(capacity_scale=1.0 / 32.0, trace_accesses=8_000, warmup_accesses=3_000, seed=1)

#: (config, Python calls per simulated access allowed).  Each budget is the
#: replay's own count plus under 10%: BL makes 2.90 calls per access and
#: Morpheus-ALL 10.51 (10.80 when the engine built every extended-LLC set
#: up front; engine construction runs inside the counted replay).
BUDGETS = {
    "BL": (SimulationConfig(num_compute_sms=68, system_name="BL", **_SIZING), 3.1),
    "Morpheus-ALL": (
        SimulationConfig(
            morpheus=MORPHEUS_ALL,
            num_compute_sms=24,
            num_cache_sms=44,
            system_name="Morpheus-ALL",
            **_SIZING,
        ),
        11.5,
    ),
}


def leaf(config: SimulationConfig):
    """``(simulator, profile)`` of a kmeans leaf whose traces are already made."""
    profile = get_application("kmeans")
    trace_cache = TraceCache()
    trace_cache.traces(
        profile,
        config.num_compute_sms,
        config.capacity_scale,
        config.seed,
        config.warmup_accesses,
        config.trace_accesses,
    )
    return GPUSimulator(config, trace_cache=trace_cache), profile


def calls_per_access(config: SimulationConfig) -> float:
    """Python calls one replay of ``config`` makes per simulated access."""
    # The traces are made first: the budget covers the replay only.
    simulator, profile = leaf(config)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        simulator.replay(profile)
    finally:
        sys.setprofile(previous)
    return calls / (config.warmup_accesses + config.trace_accesses)


@pytest.mark.parametrize("system", sorted(BUDGETS))
def test_replay_stays_within_call_budget(system):
    config, budget = BUDGETS[system]
    measured = calls_per_access(config)
    assert measured <= budget, (
        f"{system} replay makes {measured:.2f} Python calls per simulated access, "
        f"over its budget of {budget}"
    )


@pytest.mark.parametrize("system", sorted(BUDGETS))
def test_replay_leaves_no_cyclic_garbage(system):
    # With the collector off, what the collector then finds is garbage only
    # it can free: a replay's engine whose parts point back at each other
    # would keep its whole object graph in the heap until a full collection.
    simulator, profile = leaf(BUDGETS[system][0])
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        simulator.replay(profile)
        garbage = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert garbage == 0, f"{system} replay left {garbage} objects in reference cycles"
