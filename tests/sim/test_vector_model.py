"""Bit-identity parity suite for the precomputed roofline scorer.

The contract under test: for any grid of score-tier parameter variants
(power gating, peak warp IPC, MLP, system label, resource envelope) over one
replay measurement, :meth:`PerformanceModel.score`,
:meth:`PerformanceModel.score_batch` and every
:class:`~repro.sim.vector_model.MeasurementScorer` entry point produce
``SimulationStats`` **bit-identical** to :func:`reference_score`, a
straight-line evaluation of the roofline that hoists nothing.  Equality is
asserted on ``dataclasses.asdict``, i.e. exact float equality over every
field including the per-limit roofline dict and the energy breakdown.
"""

from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Dict

import pytest

import repro
from repro.core.config import MorpheusConfig
from repro.energy.components import ComponentEnergies
from repro.energy.model import EnergyModel
from repro.gpu.config import RTX3080_CONFIG
from repro.sim.performance_model import (
    PerformanceModel,
    ResourceEnvelope,
    shared_bandwidth_capacities,
)
from repro.sim.simulator import GPUSimulator, SCORE_FIELDS, SimulationConfig
from repro.sim.stats import SimulationStats
from repro.sim.vector_model import MeasurementScorer
from repro.workloads.applications import get_application

#: Replay-side baseline the variants are scored against (Morpheus carries
#: an extended-LLC limit row; the plain config drops it).
MORPHEUS_CONFIG = SimulationConfig(
    gpu=RTX3080_CONFIG,
    morpheus=MorpheusConfig(),
    num_compute_sms=20,
    num_cache_sms=8,
    power_gate_unused=True,
    capacity_scale=1.0 / 64.0,
    trace_accesses=800,
    warmup_accesses=200,
    system_name="batch-test",
    seed=1,
)

PLAIN_CONFIG = SimulationConfig(
    gpu=RTX3080_CONFIG,
    num_compute_sms=34,
    power_gate_unused=False,
    capacity_scale=1.0 / 64.0,
    trace_accesses=800,
    warmup_accesses=200,
    system_name="batch-test-plain",
    seed=1,
)


def _random_variants(config: SimulationConfig, count: int, seed: int = 1234):
    """``count`` configs perturbing every SCORE_FIELDS dimension at random."""
    rng = random.Random(seed)
    variants = []
    for index in range(count):
        envelope = ResourceEnvelope(
            dram_bandwidth_share=rng.uniform(0.1, 1.0),
            llc_bandwidth_share=rng.uniform(0.1, 1.0),
            noc_bandwidth_share=rng.uniform(0.1, 1.0),
        )
        variants.append(
            dataclasses.replace(
                config,
                power_gate_unused=rng.random() < 0.5,
                peak_warp_ipc_per_sm=rng.choice((2.0, 4.0, 6.0)),
                mlp_per_sm=rng.choice((80.0, 320.0, 480.0)),
                system_name=f"variant-{index % 3}",
                envelope=envelope if rng.random() < 0.8 else config.envelope,
            )
        )
    return variants


def reference_score(profile, config, measurement, energy_model=None):
    """The roofline evaluated straight through, with nothing hoisted.

    IPC is the minimum of the compute limit, the DRAM bandwidth limit, the
    conventional/extended LLC bandwidth limits, the interconnect limit and
    the latency/MLP limit; the shared-channel capacities are granted
    through the config's envelope.  Execution time, energy and
    performance/watt follow from the modelled IPC and the per-level traffic
    extrapolated to the application's full instruction count.
    """
    energy_model = energy_model or EnergyModel()
    cfg = config
    gpu = cfg.gpu
    counters = measurement.counters

    l1_hit = profile.l1_hit_rate_for_capacity(gpu.l1_shared_bytes_per_sm)
    apki_l1 = profile.l1_apki
    apki_llc = profile.llc_apki(l1_hit)
    block = gpu.block_size

    accesses = max(1, counters.llc_accesses)
    dram_demand_fraction = counters.dram_access_fraction
    llc_mpki = apki_llc * (1.0 - counters.llc_hit_rate)
    dram_apki = apki_llc * dram_demand_fraction

    # Bytes moved per kilo-instruction at each level (measured per LLC
    # access, scaled by the application's LLC access intensity).
    conv_bytes_per_ki = counters.conventional_bytes / accesses * apki_llc
    ext_bytes_per_ki = counters.extended_bytes / accesses * apki_llc
    dram_bytes_per_ki = counters.dram_bytes / accesses * apki_llc
    noc_bytes_per_ki = counters.noc_bytes / accesses * apki_llc
    l1_bytes_per_ki = apki_l1 * block

    # --- IPC limits -------------------------------------------------------------
    limits: Dict[str, float] = {}
    limits["compute"] = (
        cfg.num_compute_sms * cfg.peak_warp_ipc_per_sm * profile.compute_efficiency
    )

    def bandwidth_limit(bytes_per_cycle: float, bytes_per_ki: float) -> float:
        if bytes_per_ki <= 1e-9:
            return float("inf")
        return bytes_per_cycle / (bytes_per_ki / 1000.0)

    envelope = cfg.envelope
    capacities = shared_bandwidth_capacities(gpu)

    dram_bpc = capacities["dram"] * envelope.dram_bandwidth_share
    limits["dram_bandwidth"] = bandwidth_limit(dram_bpc, dram_bytes_per_ki)

    llc_bpc = capacities["llc"] * envelope.llc_bandwidth_share
    limits["llc_bandwidth"] = bandwidth_limit(llc_bpc, conv_bytes_per_ki)

    if cfg.num_cache_sms > 0 and cfg.morpheus is not None:
        ext_bpc = (
            cfg.morpheus.timing.per_sm_extended_bandwidth_gbps
            / gpu.core_clock_ghz
            * cfg.num_cache_sms
        )
        limits["extended_llc_bandwidth"] = bandwidth_limit(ext_bpc, ext_bytes_per_ki)

    noc_bpc = capacities["noc"] * envelope.noc_bandwidth_share
    limits["noc_bandwidth"] = bandwidth_limit(noc_bpc, noc_bytes_per_ki)

    avg_latency = max(1.0, counters.average_latency_cycles)
    if apki_llc > 1e-9:
        limits["latency"] = (
            cfg.num_compute_sms * cfg.mlp_per_sm / avg_latency * (1000.0 / apki_llc)
        )
    else:
        limits["latency"] = float("inf")

    ipc = min(limits.values())
    bottleneck = min(limits, key=limits.get)

    instructions = float(profile.instructions)
    execution_cycles = instructions / max(ipc, 1e-9)

    # --- energy -----------------------------------------------------------------
    kilo_instructions = instructions / 1000.0
    num_gated = 0
    num_active_extra = gpu.num_sms - cfg.num_compute_sms - cfg.num_cache_sms
    if cfg.power_gate_unused:
        num_gated = num_active_extra
        num_active_extra = 0
    breakdown = energy_model.compute(
        execution_cycles=execution_cycles,
        instructions=instructions,
        dram_bytes=dram_bytes_per_ki * kilo_instructions,
        llc_bytes=conv_bytes_per_ki * kilo_instructions,
        extended_llc_bytes=ext_bytes_per_ki * kilo_instructions,
        l1_bytes=l1_bytes_per_ki * kilo_instructions,
        noc_bytes=noc_bytes_per_ki * kilo_instructions,
        num_compute_sms=cfg.num_compute_sms + num_active_extra,
        num_cache_sms=cfg.num_cache_sms,
        num_gated_sms=num_gated,
        morpheus_enabled=cfg.morpheus is not None and cfg.num_cache_sms > 0,
    )
    perf_per_watt = energy_model.performance_per_watt(ipc, breakdown, execution_cycles)
    avg_power = energy_model.average_power_watts(breakdown, execution_cycles)

    predictor = measurement.predictor

    # Achieved throughputs at the modelled IPC (GB/s).
    seconds_per_ki = (1000.0 / max(ipc, 1e-9)) / (gpu.core_clock_ghz * 1e9)

    def throughput_gbps(bytes_per_ki: float) -> float:
        if seconds_per_ki <= 0:
            return 0.0
        return bytes_per_ki / seconds_per_ki / 1e9

    return SimulationStats(
        application=profile.name,
        system=cfg.system_name,
        num_compute_sms=cfg.num_compute_sms,
        num_cache_sms=cfg.num_cache_sms,
        num_gated_sms=num_gated,
        ipc=ipc,
        execution_cycles=execution_cycles,
        instructions=instructions,
        l1_hit_rate=l1_hit,
        llc_hit_rate=counters.llc_hit_rate,
        conventional_llc_hit_rate=counters.conventional_hit_rate,
        extended_llc_hit_rate=counters.extended_hit_rate,
        extended_fraction=counters.extended_fraction,
        llc_mpki=llc_mpki,
        llc_apki=apki_llc,
        dram_accesses_per_ki=dram_apki,
        dram_bytes=dram_bytes_per_ki * kilo_instructions,
        dram_bandwidth_utilization=min(
            1.0, throughput_gbps(dram_bytes_per_ki) / max(1e-9, gpu.dram.total_bandwidth_gbps)
        ),
        llc_throughput_gbps=throughput_gbps(conv_bytes_per_ki + ext_bytes_per_ki),
        extended_llc_throughput_gbps=throughput_gbps(ext_bytes_per_ki),
        noc_bytes=noc_bytes_per_ki * kilo_instructions,
        noc_injection_bytes_per_cycle=noc_bytes_per_ki / 1000.0 * ipc,
        noc_average_latency_cycles=measurement.noc_average_latency_cycles,
        average_memory_latency_cycles=avg_latency,
        bottleneck=bottleneck,
        limits=limits,
        predictor_false_positive_rate=(
            predictor.false_positive_rate if predictor is not None else 0.0
        ),
        predictor_false_negatives=(
            predictor.false_negatives if predictor is not None else 0
        ),
        predicted_miss_fraction=(
            counters.predicted_misses / accesses if accesses else 0.0
        ),
        energy=breakdown,
        average_power_watts=avg_power,
        performance_per_watt=perf_per_watt,
    )


def _assert_identical(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert dataclasses.asdict(got) == dataclasses.asdict(want)


@pytest.fixture(scope="module")
def kmeans():
    return get_application("kmeans")


@pytest.fixture(scope="module")
def morpheus_measurement(kmeans):
    return GPUSimulator(MORPHEUS_CONFIG).replay(kmeans)


@pytest.fixture(scope="module")
def plain_measurement(kmeans):
    return GPUSimulator(PLAIN_CONFIG).replay(kmeans)


def _assert_every_entry_point_matches(profile, config, measurement, variants):
    """``score``, ``score_config`` and ``score_batch`` equal the reference."""
    model = PerformanceModel()
    expected = [reference_score(profile, variant, measurement) for variant in variants]
    _assert_identical(model.score_batch(profile, variants, measurement), expected)
    _assert_identical(
        [model.score(profile, variant, measurement) for variant in variants], expected
    )
    scorer = model.scorer(profile, config, measurement)
    _assert_identical([scorer.score_config(variant) for variant in variants], expected)
    return expected


class TestBatchParity:
    def test_randomized_grid_matches_scalar_bit_for_bit(
        self, kmeans, morpheus_measurement
    ):
        _assert_every_entry_point_matches(
            kmeans,
            MORPHEUS_CONFIG,
            morpheus_measurement,
            _random_variants(MORPHEUS_CONFIG, 96),
        )

    def test_plain_config_grid_has_no_extended_row_and_matches(
        self, kmeans, plain_measurement
    ):
        expected = _assert_every_entry_point_matches(
            kmeans,
            PLAIN_CONFIG,
            plain_measurement,
            _random_variants(PLAIN_CONFIG, 32, seed=99),
        )
        for stats in expected:
            assert "extended_llc_bandwidth" not in stats.limits

    def test_envelope_only_sweep_matches_scalar_bit_for_bit(
        self, kmeans, plain_measurement
    ):
        # The contention solver's shape: one config, only the envelope
        # varies, scored through score_envelope.
        rng = random.Random(7)
        variants = [
            dataclasses.replace(
                PLAIN_CONFIG,
                envelope=ResourceEnvelope(
                    dram_bandwidth_share=rng.uniform(0.1, 1.0),
                    llc_bandwidth_share=rng.uniform(0.1, 1.0),
                    noc_bandwidth_share=rng.uniform(0.1, 1.0),
                ),
            )
            for _ in range(64)
        ]
        expected = _assert_every_entry_point_matches(
            kmeans, PLAIN_CONFIG, plain_measurement, variants
        )
        scorer = PerformanceModel().scorer(kmeans, PLAIN_CONFIG, plain_measurement)
        _assert_identical(
            [scorer.score_envelope(config.envelope) for config in variants], expected
        )

    def test_every_score_field_varies_somewhere_in_the_grid(self):
        # Guard against the generator silently degenerating: each of the
        # five score-tier dimensions must actually take >1 value.
        variants = _random_variants(MORPHEUS_CONFIG, 96)
        for field in SCORE_FIELDS:
            values = {repr(getattr(config, field)) for config in variants}
            assert len(values) > 1, f"grid never varies score field {field!r}"

    def test_empty_batch(self, kmeans, morpheus_measurement):
        assert PerformanceModel().score_batch(kmeans, [], morpheus_measurement) == []

    def test_validate_rejects_replay_mismatch(self, kmeans, morpheus_measurement):
        model = PerformanceModel()
        mismatched = dataclasses.replace(MORPHEUS_CONFIG, trace_accesses=801)
        with pytest.raises(ValueError, match="replay"):
            model.score_batch(
                kmeans, [MORPHEUS_CONFIG, mismatched], morpheus_measurement
            )


class TestScorerFastPaths:
    def test_score_envelope_matches_scalar_score(self, kmeans, morpheus_measurement):
        model = PerformanceModel()
        scorer = model.scorer(kmeans, MORPHEUS_CONFIG, morpheus_measurement)
        envelope = ResourceEnvelope(
            dram_bandwidth_share=0.375,
            llc_bandwidth_share=0.625,
            noc_bandwidth_share=0.5,
        )
        expected = reference_score(
            kmeans,
            dataclasses.replace(MORPHEUS_CONFIG, envelope=envelope),
            morpheus_measurement,
        )
        actual = scorer.score_envelope(envelope)
        assert dataclasses.asdict(actual) == dataclasses.asdict(expected)

    def test_score_config_matches_scalar_score(self, kmeans, morpheus_measurement):
        model = PerformanceModel()
        scorer = model.scorer(kmeans, MORPHEUS_CONFIG, morpheus_measurement)
        variant = dataclasses.replace(
            MORPHEUS_CONFIG,
            power_gate_unused=False,
            mlp_per_sm=480.0,
            system_name="one-off",
        )
        expected = reference_score(kmeans, variant, morpheus_measurement)
        assert dataclasses.asdict(scorer.score_config(variant)) == dataclasses.asdict(
            expected
        )

    def test_matches_replay_guard(self, kmeans, morpheus_measurement):
        scorer = MeasurementScorer(kmeans, MORPHEUS_CONFIG, morpheus_measurement)
        assert scorer.matches_replay(MORPHEUS_CONFIG)
        # Score-tier perturbations keep the replay parameters intact.
        assert scorer.matches_replay(
            dataclasses.replace(MORPHEUS_CONFIG, mlp_per_sm=80.0)
        )
        assert not scorer.matches_replay(
            dataclasses.replace(MORPHEUS_CONFIG, seed=2)
        )
        assert not scorer.matches_replay(
            dataclasses.replace(MORPHEUS_CONFIG, replay_mode="analytic")
        )

    def test_energy_batch_matches_per_model_scoring(
        self, kmeans, morpheus_measurement
    ):
        energies_grid = [
            ComponentEnergies(),
            ComponentEnergies(dram_pj_per_byte=25.0),
            ComponentEnergies(base_static_watts=40.0),
        ]
        scorer = MeasurementScorer(kmeans, MORPHEUS_CONFIG, morpheus_measurement)
        batched = scorer.score_energy_batch(
            MORPHEUS_CONFIG, [EnergyModel(energies) for energies in energies_grid]
        )
        expected = [
            reference_score(
                kmeans, MORPHEUS_CONFIG, morpheus_measurement, EnergyModel(energies)
            )
            for energies in energies_grid
        ]
        _assert_identical(batched, expected)


def test_scoring_never_imports_numpy():
    """Every scoring entry point runs on the standard library alone."""
    code = textwrap.dedent(
        """
        import dataclasses, sys
        from repro.sim.performance_model import PerformanceModel, ResourceEnvelope
        from repro.sim.simulator import GPUSimulator, SimulationConfig
        from repro.workloads.applications import get_application

        config = SimulationConfig(
            num_compute_sms=34, capacity_scale=1 / 64, trace_accesses=400,
            warmup_accesses=100, seed=1,
        )
        profile = get_application("kmeans")
        measurement = GPUSimulator(config).replay(profile)
        model = PerformanceModel()
        model.score(profile, config, measurement)
        model.scorer(profile, config, measurement).score_envelope(
            ResourceEnvelope(dram_bandwidth_share=0.5)
        )
        model.score_batch(
            profile,
            [dataclasses.replace(config, mlp_per_sm=mlp) for mlp in range(64, 80)],
            measurement,
        )
        loaded = sorted(name for name in sys.modules if name.split(".")[0] == "numpy")
        assert not loaded, loaded
        """
    )
    source = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (source, env.get("PYTHONPATH")) if path
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stderr
