"""The replay engine's accounting: every access counted once, bytes conserved.

Each leaf is replayed the way :meth:`~repro.sim.simulator.GPUSimulator.replay`
replays one: a warm-up trace, a counter reset, then the measurement trace,
whose counters must satisfy:

* every access lands in exactly one outcome (conventional hit, extended
  hit or DRAM);
* every extended request is an extended hit, a predicted miss or a false
  positive's wasted round trip;
* every byte counter is a count times a size, and the NoC bytes the
  counters charge are the bytes the network's links carried;
* every rate lies in [0, 1].

A table runs every application on BL and on Morpheus-ALL with each hit/miss
predictor; a ``hypothesis`` property draws the application, the system,
the predictor, the SM split, the seed and both trace lengths.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.extended_llc import Compressibility
from repro.gpu.config import RTX3080_CONFIG
from repro.sim.engine import REQUEST_BYTES, MemoryHierarchyEngine
from repro.systems.morpheus_system import MorpheusVariant
from repro.workloads.applications import APPLICATIONS, get_application
from repro.workloads.generator import TraceGenerator

GPU = RTX3080_CONFIG
BLOCK = GPU.block_size
SCALE = 1.0 / 64.0
PREDICTORS = ("bloom", "none", "perfect")


def network_load_bytes(network) -> int:
    """Bytes every link of ``network`` has carried, requests and responses."""
    return sum(link.bytes_transferred for port in network.ports for link in port)


def replay(application, morpheus, compute_sms, cache_sms, seed, warmup, measured):
    """The leaf's measured counters, and the bytes the NoC's links carried meanwhile."""
    profile = get_application(application)
    engine = MemoryHierarchyEngine(
        GPU,
        morpheus=morpheus if cache_sms else None,
        cache_sm_ids=list(range(compute_sms, compute_sms + cache_sms)),
        compressibility=Compressibility(
            high_fraction=profile.compressible_high,
            low_fraction=profile.compressible_low,
        ),
        capacity_scale=SCALE,
    )
    generator = TraceGenerator(profile, compute_sms, scale=SCALE, seed=seed)
    warmup_trace = generator.generate(warmup)
    trace = generator.generate(measured)
    if warmup:
        engine.run(warmup_trace)
        engine.reset_counters()
    loaded = network_load_bytes(engine.network)
    counters = engine.run(trace)
    return counters, network_load_bytes(engine.network) - loaded


def check_accounting(counters, noc_load_bytes) -> None:
    c = counters
    assert c.conventional_hits + c.extended_hits + c.dram_accesses == c.llc_accesses
    assert c.extended_requests == (
        c.extended_hits + c.predicted_misses + c.false_positive_trips
    )
    assert c.dram_bytes == (c.dram_accesses + c.writebacks) * BLOCK
    assert c.extended_bytes == c.extended_hits * BLOCK
    assert c.conventional_bytes == (c.llc_accesses - c.extended_requests) * BLOCK
    # Each access's partition hop carries its request out and one block
    # back; an extended hit or a false positive adds a block each way.
    noc_bytes = c.llc_accesses * (REQUEST_BYTES + BLOCK) + 2 * BLOCK * (
        c.extended_hits + c.false_positive_trips
    )
    assert c.noc_bytes == noc_bytes == noc_load_bytes
    for rate in (
        c.llc_hit_rate,
        c.conventional_hit_rate,
        c.extended_hit_rate,
        c.extended_fraction,
        c.dram_access_fraction,
    ):
        assert 0.0 <= rate <= 1.0


#: Each system of the table by its label: BL, and Morpheus-ALL with each
#: predictor.
SYSTEMS = {
    "BL": None,
    **{
        f"Morpheus-ALL({predictor})": MorpheusVariant.ALL.to_config(predictor)
        for predictor in PREDICTORS
    },
}


@pytest.mark.parametrize("system", list(SYSTEMS))
@pytest.mark.parametrize("application", list(APPLICATIONS))
def test_accounting_adds_up(application, system):
    morpheus = SYSTEMS[system]
    cache_sms = GPU.num_sms - 24 if morpheus is not None else 0
    counters, noc_load_bytes = replay(
        application, morpheus, 24, cache_sms, seed=1, warmup=200, measured=800
    )
    assert counters.llc_accesses == 800
    check_accounting(counters, noc_load_bytes)


@st.composite
def leaves(draw):
    """Keyword arguments of :func:`replay` for one random leaf."""
    compute_sms = draw(st.integers(min_value=1, max_value=GPU.num_sms))
    variant = draw(st.sampled_from((None, *MorpheusVariant)))
    if variant is None:
        morpheus, cache_sms = None, 0
    else:
        morpheus = variant.to_config(draw(st.sampled_from(PREDICTORS)))
        cache_sms = draw(st.integers(min_value=0, max_value=GPU.num_sms - compute_sms))
    return dict(
        application=draw(st.sampled_from(sorted(APPLICATIONS))),
        morpheus=morpheus,
        compute_sms=compute_sms,
        cache_sms=cache_sms,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        warmup=draw(st.integers(min_value=0, max_value=400)),
        measured=draw(st.integers(min_value=0, max_value=1200)),
    )


@given(leaves())
@settings(max_examples=300, deadline=None)
def test_accounting_adds_up_on_random_leaves(leaf):
    counters, noc_load_bytes = replay(**leaf)
    assert counters.llc_accesses == leaf["measured"]
    check_accounting(counters, noc_load_bytes)
