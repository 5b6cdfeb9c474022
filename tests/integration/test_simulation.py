"""Integration tests: the simulator, the evaluated systems and the paper's headline behaviours.

These tests run the trace-driven simulation at reduced (FAST) fidelity, so
they check qualitative behaviour — who wins and in which direction — rather
than exact figures.
"""

import collections
import dataclasses
from array import array

import pytest

from repro.core.config import MORPHEUS_ALL, MorpheusConfig
from repro.memory.dram import DRAMConfig
from repro.memory.llc import LLCConfig
from repro.sim.engine import REQUEST_BYTES, MemoryHierarchyEngine
from repro.sim.simulator import GPUSimulator, SimulationConfig, simulate
from repro.gpu.config import GPUConfig, RTX3080_CONFIG
from repro.systems.fidelity import FAST_FIDELITY, Fidelity, get_fidelity
from repro.systems.morpheus_system import MorpheusSystem, MorpheusVariant
from repro.systems.registry import evaluate_application
from repro.workloads.applications import get_application
from repro.workloads.generator import TraceGenerator
from repro.workloads.trace import MemoryTrace

FAST_KWARGS = dict(
    capacity_scale=FAST_FIDELITY.capacity_scale,
    trace_accesses=FAST_FIDELITY.trace_accesses,
    warmup_accesses=FAST_FIDELITY.warmup_accesses,
)


def run(profile_name: str, **kwargs) -> "SimulationStats":
    profile = get_application(profile_name)
    merged = {**FAST_KWARGS, **kwargs}
    return simulate(profile, SimulationConfig(**merged))


def network_load_bytes(network) -> int:
    """Bytes every link of ``network`` has carried, requests and responses."""
    return sum(link.bytes_transferred for port in network.ports for link in port)


class TestEngine:
    def test_engine_counts_accesses(self):
        profile = get_application("cfd")
        engine = MemoryHierarchyEngine(RTX3080_CONFIG, capacity_scale=1 / 32)
        trace = TraceGenerator(profile, 20, scale=1 / 32, seed=1).generate(2000)
        counters = engine.run(trace)
        assert counters.llc_accesses == 2000
        assert counters.llc_hits + counters.dram_accesses >= 2000 * 0.95

    def test_morpheus_engine_routes_to_extended_llc(self):
        profile = get_application("cfd")
        engine = MemoryHierarchyEngine(
            RTX3080_CONFIG,
            morpheus=MorpheusConfig(),
            cache_sm_ids=list(range(20, 40)),
            capacity_scale=1 / 32,
        )
        trace = TraceGenerator(profile, 20, scale=1 / 32, seed=1).generate(3000)
        counters = engine.run(trace)
        assert counters.extended_requests > 0
        assert counters.extended_hits > 0

    def test_requests_reach_their_mapped_partition(self):
        profile = get_application("cfd")
        engine = MemoryHierarchyEngine(RTX3080_CONFIG, capacity_scale=1 / 32)
        trace = TraceGenerator(profile, 20, scale=1 / 32, seed=1).generate(2000)
        # Each partition's slice records the hit flag of every access it serves.
        served = [[] for _ in engine.llc.partitions]
        for partition, hits in zip(engine.llc.partitions, served):
            def access(*args, _access=partition.access, _hits=hits):
                outcome = _access(*args)
                _hits.append(outcome[0])
                return outcome

            partition.access = access
        counters = engine.run(trace)
        partitions = range(RTX3080_CONFIG.llc.num_partitions)
        mapped = collections.Counter((address // 128) % 10 for address in trace.addresses)
        assert [len(hits) for hits in served] == [mapped[index] for index in partitions]
        assert sum(map(sum, served)) == counters.conventional_hits
        # Each request's hop to its partition sends its request on that port.
        sent = [request_link.bytes_transferred for request_link, _ in engine.network.ports]
        assert sent == [REQUEST_BYTES * mapped[index] for index in partitions]

    def test_trace_of_another_block_size_rejected(self):
        engine = MemoryHierarchyEngine(RTX3080_CONFIG, capacity_scale=1 / 32)
        trace = MemoryTrace(array("q", [64]), b"\x00", block_size=64)
        with pytest.raises(ValueError, match="64-byte blocks"):
            engine.run(trace)
        assert engine.counters.llc_accesses == 0

    def test_morpheus_block_size_must_be_the_gpus(self):
        morpheus = dataclasses.replace(MORPHEUS_ALL, block_size=64)
        with pytest.raises(ValueError, match="Morpheus config has 64-byte blocks"):
            MemoryHierarchyEngine(
                RTX3080_CONFIG, morpheus=morpheus, cache_sm_ids=[64, 65], capacity_scale=1 / 32
            )

    @pytest.mark.parametrize("block_size", [128, 64])
    def test_noc_bytes_match_network_injection(self, block_size):
        # Every byte the counters charge to the NoC was injected into it:
        # the extended round trip's response is one block of the GPU's size.
        gpu = GPUConfig(
            block_size=block_size,
            llc=LLCConfig(block_size=block_size),
            dram=DRAMConfig(block_size=block_size),
        )
        morpheus = dataclasses.replace(MORPHEUS_ALL, block_size=block_size)
        engine = MemoryHierarchyEngine(
            gpu, morpheus=morpheus, cache_sm_ids=list(range(24, 68)), capacity_scale=1 / 32
        )
        generator = TraceGenerator(
            get_application("kmeans"), 24, scale=1 / 32, seed=1, block_size=block_size
        )
        engine.run(generator.generate(1000))
        engine.reset_counters()
        loaded = network_load_bytes(engine.network)
        counters = engine.run(generator.generate(4000))
        assert counters.extended_requests > counters.extended_hits > 0
        # The links' own byte counts over the measured run.
        assert counters.noc_bytes == network_load_bytes(engine.network) - loaded

    def test_counters_returned_before_a_reset_stay_fixed(self):
        # The engine counts DRAM and NoC traffic into the counters of the
        # current run only: a reset leaves the warm-up's counters as they were.
        engine = MemoryHierarchyEngine(
            RTX3080_CONFIG,
            morpheus=MORPHEUS_ALL,
            cache_sm_ids=list(range(24, 68)),
            capacity_scale=1 / 32,
        )
        generator = TraceGenerator(get_application("kmeans"), 24, scale=1 / 32, seed=1)
        warmup = engine.run(generator.generate(1000))
        before = warmup.to_jsonable()
        engine.reset_counters()
        measured = engine.run(generator.generate(1000))
        assert measured is not warmup
        assert measured.dram_accesses > 0 and measured.noc_bytes > 0
        assert warmup.to_jsonable() == before

    def test_controllers_count_into_the_engines_counters(self):
        # Each Morpheus controller counts its outcomes into the counters the
        # engine's run returns, before and after a reset.
        engine = MemoryHierarchyEngine(
            RTX3080_CONFIG,
            morpheus=MORPHEUS_ALL,
            cache_sm_ids=list(range(24, 68)),
            capacity_scale=1 / 32,
        )
        generator = TraceGenerator(get_application("kmeans"), 24, scale=1 / 32, seed=1)
        for _ in range(2):
            assert engine.controllers
            assert all(controller.counters is engine.counters for controller in engine.controllers)
            counters = engine.run(generator.generate(500))
            assert counters.extended_requests > 0
            engine.reset_counters()

    def test_reset_counters_preserves_cache_contents(self):
        profile = get_application("cfd")
        engine = MemoryHierarchyEngine(RTX3080_CONFIG, capacity_scale=1 / 32)
        generator = TraceGenerator(profile, 20, scale=1 / 32, seed=1)
        engine.run(generator.generate(2000))
        contents_before = [list(s.items()) for p in engine.llc.partitions for s in p.sets]
        assert any(contents_before)
        engine.reset_counters()
        assert engine.counters.llc_accesses == 0
        assert [list(s.items()) for p in engine.llc.partitions for s in p.sets] == contents_before


class TestSimulatorBasics:
    def test_simulation_produces_positive_ipc(self):
        stats = run("cfd", num_compute_sms=34)
        assert stats.ipc > 0
        assert stats.execution_cycles > 0
        assert stats.energy is not None
        assert stats.performance_per_watt > 0

    def test_memory_bound_app_is_memory_limited_at_high_sm_count(self):
        stats = run("p-bfs", num_compute_sms=68)
        assert stats.bottleneck in ("dram_bandwidth", "latency", "noc_bandwidth")

    def test_compute_bound_app_is_compute_limited(self):
        stats = run("mri-q", num_compute_sms=68)
        assert stats.bottleneck == "compute"

    def test_compute_bound_scales_with_sms(self):
        low = run("mri-q", num_compute_sms=10)
        high = run("mri-q", num_compute_sms=68)
        assert high.ipc / low.ipc == pytest.approx(6.8, rel=0.05)

    def test_memory_bound_saturates_with_sms(self):
        low = run("stencil", num_compute_sms=10)
        high = run("stencil", num_compute_sms=68)
        assert high.ipc / low.ipc < 2.0

    def test_larger_llc_helps_memory_bound_app(self):
        base = run("kmeans", num_compute_sms=24, power_gate_unused=True)
        bigger = run(
            "kmeans",
            num_compute_sms=24,
            power_gate_unused=True,
            gpu=RTX3080_CONFIG.with_llc_scale(4),
        )
        assert bigger.ipc > base.ipc

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(num_compute_sms=60, num_cache_sms=20)
        with pytest.raises(ValueError):
            SimulationConfig(num_cache_sms=4)  # cache SMs without Morpheus


class TestMorpheusBehaviour:
    def test_morpheus_beats_same_compute_sms_without_it(self):
        baseline = run("kmeans", num_compute_sms=24, power_gate_unused=True)
        morpheus = run(
            "kmeans",
            num_compute_sms=24,
            num_cache_sms=44,
            morpheus=MorpheusConfig(enable_compression=True, enable_indirect_mov_isa=True),
            power_gate_unused=True,
        )
        assert morpheus.ipc > baseline.ipc
        assert morpheus.llc_hit_rate > baseline.llc_hit_rate

    def test_morpheus_reduces_offchip_traffic(self):
        baseline = run("kmeans", num_compute_sms=24, power_gate_unused=True)
        morpheus = run(
            "kmeans",
            num_compute_sms=24,
            num_cache_sms=44,
            morpheus=MorpheusConfig(),
            power_gate_unused=True,
        )
        assert morpheus.dram_accesses_per_ki < baseline.dram_accesses_per_ki

    def test_predictor_has_no_false_negatives(self):
        morpheus = run(
            "cfd",
            num_compute_sms=34,
            num_cache_sms=34,
            morpheus=MorpheusConfig(),
            power_gate_unused=True,
        )
        assert morpheus.predictor_false_negatives == 0

    def test_compression_increases_extended_capacity_benefit(self):
        basic = run(
            "kmeans", num_compute_sms=24, num_cache_sms=44,
            morpheus=MorpheusConfig(), power_gate_unused=True,
        )
        compressed = run(
            "kmeans", num_compute_sms=24, num_cache_sms=44,
            morpheus=MorpheusConfig(enable_compression=True), power_gate_unused=True,
        )
        assert compressed.ipc >= basic.ipc

    def test_morpheus_increases_noc_load(self):
        baseline = run("kmeans", num_compute_sms=24, power_gate_unused=True)
        morpheus = run(
            "kmeans", num_compute_sms=24, num_cache_sms=44,
            morpheus=MorpheusConfig(), power_gate_unused=True,
        )
        assert morpheus.noc_bytes > baseline.noc_bytes


class TestEvaluatedSystems:
    def test_morpheus_all_beats_bl_on_thrashing_app(self):
        bl = evaluate_application("BL", "kmeans", fidelity=FAST_FIDELITY)
        morpheus = evaluate_application("Morpheus-ALL", "kmeans", fidelity=FAST_FIDELITY)
        assert morpheus.execution_cycles < bl.execution_cycles

    def test_morpheus_energy_efficiency_beats_bl(self):
        bl = evaluate_application("BL", "kmeans", fidelity=FAST_FIDELITY)
        morpheus = evaluate_application("Morpheus-ALL", "kmeans", fidelity=FAST_FIDELITY)
        assert morpheus.performance_per_watt > bl.performance_per_watt

    def test_morpheus_does_not_hurt_compute_bound_apps(self):
        bl = evaluate_application("BL", "mri-q", fidelity=FAST_FIDELITY)
        morpheus = evaluate_application("Morpheus-ALL", "mri-q", fidelity=FAST_FIDELITY)
        assert morpheus.ipc == pytest.approx(bl.ipc, rel=0.05)
        assert morpheus.num_cache_sms == 0

    def test_morpheus_operating_point_uses_cache_sms_for_memory_bound(self):
        system = MorpheusSystem(MorpheusVariant.ALL, fidelity=FAST_FIDELITY)
        point = system.operating_point(get_application("kmeans"))
        assert point.num_cache_sms > 0
        assert point.num_compute_sms + point.num_cache_sms <= 68

    def test_ibl_uses_fewer_sms_for_thrashing_app(self):
        ibl = evaluate_application("IBL", "kmeans", fidelity=FAST_FIDELITY)
        assert ibl.num_compute_sms < 68


class TestFidelityPresets:
    @pytest.mark.parametrize("field", ["trace_accesses", "search_trace_accesses"])
    def test_trace_lengths_must_be_positive(self, field):
        # Every config a fidelity builds replays a trace of one of these
        # lengths, and SimulationConfig rejects an empty trace.
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            Fidelity(**{field: 0})
        # Warm-ups may be empty.
        empty_warmups = Fidelity(warmup_accesses=0, search_warmup_accesses=0)
        assert empty_warmups.config().warmup_accesses == 0
        assert empty_warmups.config(search=True).warmup_accesses == 0

    def test_get_fidelity_accepts_only_a_fidelity(self):
        assert get_fidelity(FAST_FIDELITY) is FAST_FIDELITY
        for other in ("fast", 3):
            with pytest.raises(TypeError, match="expected a Fidelity"):
                get_fidelity(other)

    def test_config_sizes_a_leaf_and_passes_fields_through(self):
        full = FAST_FIDELITY.config(num_compute_sms=20, system_name="leaf", seed=3)
        assert full.capacity_scale == FAST_FIDELITY.capacity_scale
        assert full.trace_accesses == FAST_FIDELITY.trace_accesses
        assert full.warmup_accesses == FAST_FIDELITY.warmup_accesses
        assert (full.num_compute_sms, full.system_name, full.seed) == (20, "leaf", 3)
        search = FAST_FIDELITY.config(search=True, num_compute_sms=20)
        assert search.capacity_scale == FAST_FIDELITY.capacity_scale
        assert search.trace_accesses == FAST_FIDELITY.search_trace_accesses
        assert search.warmup_accesses == FAST_FIDELITY.search_warmup_accesses
