"""Per-access call and memory budgets of trace generation.

Counts, per generated access, the Python function calls that making one
(warm-up, measurement) trace pair takes under ``sys.setprofile``, and the
bytes that the pair holds once it sits in a :class:`TraceCache`, under
``tracemalloc``.  Both counts are deterministic and free of host noise, so
a change that builds an object per access shows up here before it shows up
in a timed benchmark.  The pair uses the benchmark sizing of the replay
call budget: kmeans at 24 compute SMs, 1/32 scale, seed 1, 3,000 warm-up
and 8,000 measured accesses.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

from repro.workloads.applications import get_application
from repro.workloads.generator import TraceCache

_WARMUP_ACCESSES = 3_000
_TRACE_ACCESSES = 8_000
_ACCESSES = _WARMUP_ACCESSES + _TRACE_ACCESSES

#: Python calls per generated access allowed: the generator's own count
#: (1.64; 3.64 when each access was a request object) plus under 10%.
CALL_BUDGET = 1.8

#: Bytes held per generated access of the cached pair: the generator's own
#: count (9.6; 112.1 when each access was a request object) plus under 10%.
BYTES_BUDGET = 10.5


def make_pair(cache: TraceCache):
    """Generate the benchmark-sized kmeans pair into ``cache`` and return it."""
    return cache.traces(
        get_application("kmeans"),
        num_compute_sms=24,
        scale=1 / 32,
        seed=1,
        warmup_accesses=_WARMUP_ACCESSES,
        trace_accesses=_TRACE_ACCESSES,
    )


def calls_per_access() -> float:
    """Python calls that generating the pair makes per access."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    cache = TraceCache()
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        make_pair(cache)
    finally:
        sys.setprofile(previous)
    return calls / _ACCESSES


def held_bytes_per_access() -> float:
    """Bytes the cached pair holds per access, as ``tracemalloc`` traces them."""
    cache = TraceCache()
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        pair = make_pair(cache)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, pair)) == _ACCESSES
    return (held - before) / _ACCESSES


def test_trace_generation_stays_within_call_budget():
    measured = calls_per_access()
    assert measured <= CALL_BUDGET, (
        f"trace generation makes {measured:.2f} Python calls per generated access, "
        f"over its budget of {CALL_BUDGET}"
    )


def test_cached_trace_pair_stays_within_memory_budget():
    measured = held_bytes_per_access()
    assert measured <= BYTES_BUDGET, (
        f"a cached trace pair holds {measured:.1f} bytes per generated access, "
        f"over its budget of {BYTES_BUDGET}"
    )
