"""Precomputed scoring of one replay measurement: the repository's roofline.

The analytic half of a simulation turns one
:class:`~repro.sim.performance_model.ReplayMeasurement` into IPC, execution
time, energy and performance/watt.  :class:`MeasurementScorer` is the one
implementation of that bottleneck (roofline-style) model, split in two:

* ``__init__`` hoists everything that depends only on (profile, replay
  config, measurement) — hit rates, bytes per kilo-instruction, channel
  capacities — once per measurement;
* :meth:`~MeasurementScorer.score_config` /
  :meth:`~MeasurementScorer.score_envelope` evaluate the few expressions
  that depend on the score-tier parameters over the hoisted state (the
  contention solver calls ``score_envelope`` once per iteration).

These two methods are the only way a measurement becomes
:class:`~repro.sim.stats.SimulationStats`.
:meth:`PerformanceModel.score <repro.sim.performance_model.PerformanceModel.score>`
builds a scorer and calls ``score_config``, and the runner scores each
replay group through one scorer, so a single leaf, a sweep and a
contention solve all run the same arithmetic.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.energy.model import EnergyModel
from repro.sim.stats import SimulationStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.performance_model import ReplayMeasurement, ResourceEnvelope
    from repro.sim.simulator import SimulationConfig
    from repro.workloads.applications import ApplicationProfile

_INF = float("inf")


class MeasurementScorer:
    """Scores one measurement under many score-tier parameter variants.

    IPC is the minimum of the compute limit, the DRAM bandwidth limit, the
    conventional/extended LLC bandwidth limits, the interconnect limit and
    the latency/MLP limit.  The shared-channel capacities (DRAM,
    conventional LLC, NoC) are granted through the config's
    :class:`~repro.sim.performance_model.ResourceEnvelope`: the default
    whole-GPU envelope multiplies them by exactly ``1.0``, while fractional
    shares model a co-resident tenant's slice of the memory system.
    Execution time, energy and performance/watt follow from the modelled
    IPC and the per-level traffic extrapolated to the application's full
    instruction count.

    All replay-side quantities are hoisted in ``__init__``; the per-call
    work touches only the :data:`~repro.sim.simulator.SCORE_FIELDS`
    parameters (power gating, peak IPC, MLP, system label, envelope).

    Args:
        profile: Application the measurement belongs to.
        config: A config carrying the measurement's replay parameters; its
            score-tier fields serve as defaults for :meth:`score_envelope`.
        measurement: The replay measurement being (re-)scored.
        energy_model: Energy constants results are scored with.
    """

    def __init__(
        self,
        profile: "ApplicationProfile",
        config: "SimulationConfig",
        measurement: "ReplayMeasurement",
        energy_model: Optional[EnergyModel] = None,
    ) -> None:
        from repro.sim.performance_model import shared_bandwidth_capacities

        self.profile = profile
        self.base_config = config
        self.measurement = measurement
        self.energy_model = energy_model or EnergyModel()

        gpu = config.gpu
        counters = measurement.counters

        # -- replay-side invariants ----------------------------------------------
        self._l1_hit = profile.l1_hit_rate_for_capacity(gpu.l1_shared_bytes_per_sm)
        self._apki_l1 = profile.l1_apki
        self._apki_llc = profile.llc_apki(self._l1_hit)
        block = gpu.block_size

        accesses = max(1, counters.llc_accesses)
        self._accesses = accesses
        self._llc_hit_rate = counters.llc_hit_rate
        self._llc_mpki = self._apki_llc * (1.0 - counters.llc_hit_rate)
        self._dram_apki = self._apki_llc * counters.dram_access_fraction

        self._conv_bpki = counters.conventional_bytes / accesses * self._apki_llc
        self._ext_bpki = counters.extended_bytes / accesses * self._apki_llc
        self._dram_bpki = counters.dram_bytes / accesses * self._apki_llc
        self._noc_bpki = counters.noc_bytes / accesses * self._apki_llc
        self._l1_bpki = self._apki_l1 * block

        capacities = shared_bandwidth_capacities(gpu)
        self._cap_dram = capacities["dram"]
        self._cap_llc = capacities["llc"]
        self._cap_noc = capacities["noc"]

        # A bandwidth limit is capacity / (bytes_per_ki / 1000.0); hoist the
        # divisor, or None when (near-)zero traffic makes the limit infinite.
        self._dram_div = self._bpki_divisor(self._dram_bpki)
        self._llc_div = self._bpki_divisor(self._conv_bpki)
        self._noc_div = self._bpki_divisor(self._noc_bpki)

        self._num_compute = config.num_compute_sms
        self._num_cache = config.num_cache_sms
        self._raw_extra = gpu.num_sms - config.num_compute_sms - config.num_cache_sms
        self._compute_eff = profile.compute_efficiency

        self._has_ext = config.num_cache_sms > 0 and config.morpheus is not None
        if self._has_ext:
            ext_bpc = (
                config.morpheus.timing.per_sm_extended_bandwidth_gbps
                / gpu.core_clock_ghz
                * config.num_cache_sms
            )
            div = self._bpki_divisor(self._ext_bpki)
            self._ext_limit = _INF if div is None else ext_bpc / div
        else:
            self._ext_limit = _INF

        self._avg_latency = max(1.0, counters.average_latency_cycles)
        self._inv_apki_k = (
            (1000.0 / self._apki_llc) if self._apki_llc > 1e-9 else None
        )

        self._instructions = float(profile.instructions)
        kilo_instructions = self._instructions / 1000.0
        self._dram_bytes_total = self._dram_bpki * kilo_instructions
        self._conv_bytes_total = self._conv_bpki * kilo_instructions
        self._ext_bytes_total = self._ext_bpki * kilo_instructions
        self._l1_bytes_total = self._l1_bpki * kilo_instructions
        self._noc_bytes_total = self._noc_bpki * kilo_instructions

        self._ghz9 = gpu.core_clock_ghz * 1e9
        self._dram_total_bw = max(1e-9, gpu.dram.total_bandwidth_gbps)
        self._convext_bpki = self._conv_bpki + self._ext_bpki
        self._noc_bpki_over_k = self._noc_bpki / 1000.0

        predictor = measurement.predictor
        self._pred_fpr = predictor.false_positive_rate if predictor is not None else 0.0
        self._pred_fn = predictor.false_negatives if predictor is not None else 0
        self._pred_miss_frac = (
            counters.predicted_misses / accesses if accesses else 0.0
        )
        self._noc_avg_lat = measurement.noc_average_latency_cycles

    @staticmethod
    def _bpki_divisor(bytes_per_ki: float) -> Optional[float]:
        if bytes_per_ki <= 1e-9:
            return None
        return bytes_per_ki / 1000.0

    # -- scoring -----------------------------------------------------------------------

    def _roofline(self, peak: float, mlp: float, envelope: "ResourceEnvelope"):
        """The IPC limits for one score-parameter point."""
        limits: Dict[str, float] = {}
        limits["compute"] = self._num_compute * peak * self._compute_eff
        limits["dram_bandwidth"] = (
            _INF
            if self._dram_div is None
            else (self._cap_dram * envelope.dram_bandwidth_share) / self._dram_div
        )
        limits["llc_bandwidth"] = (
            _INF
            if self._llc_div is None
            else (self._cap_llc * envelope.llc_bandwidth_share) / self._llc_div
        )
        if self._has_ext:
            limits["extended_llc_bandwidth"] = self._ext_limit
        limits["noc_bandwidth"] = (
            _INF
            if self._noc_div is None
            else (self._cap_noc * envelope.noc_bandwidth_share) / self._noc_div
        )
        if self._inv_apki_k is not None:
            limits["latency"] = (
                self._num_compute * mlp / self._avg_latency * self._inv_apki_k
            )
        else:
            limits["latency"] = _INF
        return limits

    def _score(
        self,
        power_gate_unused: bool,
        peak: float,
        mlp: float,
        system_name: str,
        envelope: "ResourceEnvelope",
    ) -> SimulationStats:
        """Full statistics for one score-parameter point over the hoisted state."""
        energy_model = self.energy_model
        limits = self._roofline(peak, mlp, envelope)
        ipc = min(limits.values())
        bottleneck = min(limits, key=limits.get)
        execution_cycles = self._instructions / max(ipc, 1e-9)

        num_gated = 0
        num_active_extra = self._raw_extra
        if power_gate_unused:
            num_gated = num_active_extra
            num_active_extra = 0
        breakdown = energy_model.compute(
            execution_cycles=execution_cycles,
            instructions=self._instructions,
            dram_bytes=self._dram_bytes_total,
            llc_bytes=self._conv_bytes_total,
            extended_llc_bytes=self._ext_bytes_total,
            l1_bytes=self._l1_bytes_total,
            noc_bytes=self._noc_bytes_total,
            num_compute_sms=self._num_compute + num_active_extra,
            num_cache_sms=self._num_cache,
            num_gated_sms=num_gated,
            morpheus_enabled=self._has_ext,
        )
        perf_per_watt = energy_model.performance_per_watt(ipc, breakdown, execution_cycles)
        avg_power = energy_model.average_power_watts(breakdown, execution_cycles)

        seconds_per_ki = (1000.0 / max(ipc, 1e-9)) / self._ghz9

        def throughput_gbps(bytes_per_ki: float) -> float:
            if seconds_per_ki <= 0:
                return 0.0
            return bytes_per_ki / seconds_per_ki / 1e9

        return SimulationStats(
            application=self.profile.name,
            system=system_name,
            num_compute_sms=self._num_compute,
            num_cache_sms=self._num_cache,
            num_gated_sms=num_gated,
            ipc=ipc,
            execution_cycles=execution_cycles,
            instructions=self._instructions,
            l1_hit_rate=self._l1_hit,
            llc_hit_rate=self._llc_hit_rate,
            conventional_llc_hit_rate=self.measurement.counters.conventional_hit_rate,
            extended_llc_hit_rate=self.measurement.counters.extended_hit_rate,
            extended_fraction=self.measurement.counters.extended_fraction,
            llc_mpki=self._llc_mpki,
            llc_apki=self._apki_llc,
            dram_accesses_per_ki=self._dram_apki,
            dram_bytes=self._dram_bytes_total,
            dram_bandwidth_utilization=min(
                1.0, throughput_gbps(self._dram_bpki) / self._dram_total_bw
            ),
            llc_throughput_gbps=throughput_gbps(self._convext_bpki),
            extended_llc_throughput_gbps=throughput_gbps(self._ext_bpki),
            noc_bytes=self._noc_bytes_total,
            noc_injection_bytes_per_cycle=self._noc_bpki_over_k * ipc,
            noc_average_latency_cycles=self._noc_avg_lat,
            average_memory_latency_cycles=self._avg_latency,
            bottleneck=bottleneck,
            limits=limits,
            predictor_false_positive_rate=self._pred_fpr,
            predictor_false_negatives=self._pred_fn,
            predicted_miss_fraction=self._pred_miss_frac,
            energy=breakdown,
            average_power_watts=avg_power,
            performance_per_watt=perf_per_watt,
        )

    def score_config(self, config: "SimulationConfig") -> SimulationStats:
        """Score one config variant (shares the hoisted invariants)."""
        return self._score(
            config.power_gate_unused,
            config.peak_warp_ipc_per_sm,
            config.mlp_per_sm,
            config.system_name,
            config.envelope,
        )

    def score_envelope(self, envelope: "ResourceEnvelope") -> SimulationStats:
        """Score the base config under ``envelope`` (the contention hot path).

        Equivalent to ``score_config(replace(base_config, envelope=...))``
        without constructing (and re-validating) a config per iteration.
        """
        base = self.base_config
        return self._score(
            base.power_gate_unused,
            base.peak_warp_ipc_per_sm,
            base.mlp_per_sm,
            base.system_name,
            envelope,
        )
