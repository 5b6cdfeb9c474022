"""Per-access call and bytecode budgets and cyclic garbage of the hierarchy replay.

Counts the Python function calls one leaf replay makes per simulated access
(warm-up included) under ``sys.setprofile``, and the bytecodes it executes
per simulated access under ``sys.settrace`` with per-opcode events.  Both
counts are deterministic and free of host noise (the same on every run and
under any ``PYTHONHASHSEED``), so they pin the per-layer cost of the replay
loop: a change that adds calls or work to every access shows up here before
it shows up in a timed benchmark.  The bytecode count also sees work inside
a call, which the call count cannot: dropping per-access counters that no
output reads left the calls per access where they were.  The same leaves
must leave no garbage that only the cyclic collector can free.  The leaves
use the benchmark sizing (kmeans at 1/32 scale, 3,000 warm-up and 8,000
measured accesses, seed 1).
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


#: Bytecodes executed per simulated access allowed, counted on CPython 3.11
#: (other versions compile to other bytecode).  Each budget is the replay's
#: own count plus under 10%: BL executes 345.9 bytecodes per access and
#: Morpheus-ALL 608.8.  On CPython 3.11.7 they executed 422.5 and 730.6 while
#: the engine, the controllers, each LLC slice and the network all counted
#: every access.
OPCODE_BUDGETS = {"BL": 379.0, "Morpheus-ALL": 656.0}


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


def opcodes_per_access(config: SimulationConfig) -> float:
    """Bytecodes one replay of ``config`` executes per simulated access."""
    simulator, profile = leaf(config)
    executed = 0

    def count_opcode(frame, event, arg):
        nonlocal executed
        if event == "opcode":
            executed += 1
        return count_opcode

    def trace_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return count_opcode

    previous = sys.gettrace()
    sys.settrace(trace_call)
    try:
        simulator.replay(profile)
    finally:
        sys.settrace(previous)
    return executed / (config.warmup_accesses + config.trace_accesses)


@pytest.mark.parametrize("system", sorted(BUDGETS))
def test_replay_stays_within_call_budget(system):
    config, budget = BUDGETS[system]
    measured = calls_per_access(config)
    assert measured <= budget, (
        f"{system} replay makes {measured:.2f} Python calls per simulated access, "
        f"over its budget of {budget}"
    )


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="the budgets count CPython 3.11 bytecode"
)
@pytest.mark.parametrize("system", sorted(OPCODE_BUDGETS))
def test_replay_stays_within_opcode_budget(system):
    budget = OPCODE_BUDGETS[system]
    measured = opcodes_per_access(BUDGETS[system][0])
    assert measured <= budget, (
        f"{system} replay executes {measured:.1f} bytecodes per simulated access, "
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
