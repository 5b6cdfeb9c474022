"""The top-level GPU simulator.

:class:`GPUSimulator` combines two layers:

1. A **functional memory-hierarchy replay** — the
   :class:`~repro.sim.engine.MemoryHierarchyEngine` drives an application's
   LLC-level trace through the real cache, controller, interconnect and DRAM
   structures to measure hit rates, routing fractions, latency and traffic.
   Traces are fetched from the shared
   :class:`~repro.workloads.generator.TraceCache`, so systems evaluated on
   the same (profile, SM count, scale, seed) reuse one generated trace.
2. A **bottleneck (roofline-style) performance model** — the standalone
   :class:`~repro.sim.performance_model.PerformanceModel` scores the replay's
   :class:`~repro.sim.performance_model.ReplayMeasurement` into IPC, energy
   and performance/watt.  Because scoring is pure, one replay can be
   re-scored under different analytic parameters without re-replaying.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.config import MorpheusConfig
from repro.core.extended_llc import Compressibility
from repro.energy.model import EnergyModel
from repro.gpu.config import GPUConfig, RTX3080_CONFIG
from repro.sim.engine import MemoryHierarchyEngine
from repro.sim.performance_model import (
    DEFAULT_ENVELOPE,
    PerformanceModel,
    ReplayMeasurement,
    ResourceEnvelope,
)
from repro.sim.stats import SimulationStats
from repro.workloads.applications import ApplicationProfile
from repro.workloads.generator import SHARED_TRACE_CACHE, TraceCache

#: Config fields that determine the functional hierarchy replay (and hence
#: the trace, the engine structures and the :class:`ReplayMeasurement`).
REPLAY_FIELDS: Tuple[str, ...] = (
    "gpu",
    "morpheus",
    "num_compute_sms",
    "num_cache_sms",
    "capacity_scale",
    "trace_accesses",
    "warmup_accesses",
    "request_interval_cycles",
    "seed",
)

#: Config fields consumed only by the analytic scoring step — changing one
#: re-scores an existing measurement but never requires a new replay.
SCORE_FIELDS: Tuple[str, ...] = (
    "power_gate_unused",
    "peak_warp_ipc_per_sm",
    "mlp_per_sm",
    "system_name",
    "envelope",
)


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one simulation run.

    Fields are partitioned into :data:`REPLAY_FIELDS` (inputs of the
    functional hierarchy replay) and :data:`SCORE_FIELDS` (analytic
    parameters of the scoring step only); :meth:`replay_params` /
    :meth:`score_params` expose the two halves for content-key derivation.

    Attributes:
        gpu: GPU hardware configuration.
        morpheus: Morpheus configuration, or ``None`` for a conventional GPU.
        num_compute_sms: SMs executing application threads.
        num_cache_sms: SMs in cache mode (Morpheus only).
        power_gate_unused: Power-gate SMs that are neither computing nor
            caching (IBL-style); the plain baseline keeps them active.
        capacity_scale: Downscaling factor applied to cache capacities and
            workload footprints for the functional replay.
        trace_accesses: LLC-level accesses replayed (after warm-up).
        warmup_accesses: LLC-level accesses replayed to warm the caches
            before measurement starts.
        request_interval_cycles: Modelled gap between consecutive trace
            entries entering the memory system; sets the offered load for
            the bandwidth/queueing models.
        peak_warp_ipc_per_sm: Peak warp instructions per cycle per SM.
        mlp_per_sm: Outstanding LLC-level requests one SM can sustain.
        system_name: Label recorded in the result (e.g. ``"Morpheus-ALL"``).
        envelope: Shares of the *shared* memory-system bandwidth (DRAM,
            conventional LLC, NoC) this run may use.  The default grants
            every channel in full; co-run contention scoring passes
            fractional shares.  Score-only: envelope sweeps re-score
            cached measurements without replaying.
        seed: Trace generation seed.
    """

    gpu: GPUConfig = RTX3080_CONFIG
    morpheus: Optional[MorpheusConfig] = None
    num_compute_sms: int = 68
    num_cache_sms: int = 0
    power_gate_unused: bool = False
    capacity_scale: float = 1.0 / 16.0
    trace_accesses: int = 24_000
    warmup_accesses: int = 8_000
    request_interval_cycles: float = 2.0
    peak_warp_ipc_per_sm: float = 4.0
    mlp_per_sm: float = 320.0
    system_name: str = "BL"
    envelope: ResourceEnvelope = DEFAULT_ENVELOPE
    seed: int = 1

    def __post_init__(self) -> None:
        if self.num_compute_sms <= 0:
            raise ValueError("num_compute_sms must be positive")
        if self.num_cache_sms < 0:
            raise ValueError("num_cache_sms must be non-negative")
        if self.num_compute_sms + self.num_cache_sms > self.gpu.num_sms:
            raise ValueError(
                "compute + cache SMs exceed the GPU's SM count "
                f"({self.num_compute_sms} + {self.num_cache_sms} > {self.gpu.num_sms})"
            )
        if self.morpheus is None and self.num_cache_sms:
            raise ValueError("cache-mode SMs require a Morpheus configuration")
        if self.trace_accesses <= 0:
            raise ValueError("trace_accesses must be positive")
        if self.warmup_accesses < 0:
            raise ValueError("warmup_accesses must be non-negative")
        if self.request_interval_cycles <= 0:
            raise ValueError("request_interval_cycles must be positive")

    def replay_params(self) -> Dict[str, Any]:
        """The replay-affecting half of the config (see :data:`REPLAY_FIELDS`)."""
        return {name: getattr(self, name) for name in REPLAY_FIELDS}

    def score_params(self) -> Dict[str, Any]:
        """The score-only analytic half of the config (see :data:`SCORE_FIELDS`)."""
        return {name: getattr(self, name) for name in SCORE_FIELDS}


# Every config field must be classified as replay-affecting or score-only;
# an unclassified field would silently fall out of both content keys.
_UNCLASSIFIED = {
    f.name for f in dataclasses.fields(SimulationConfig)
} - set(REPLAY_FIELDS) - set(SCORE_FIELDS)
if _UNCLASSIFIED:  # pragma: no cover - import-time guard
    raise RuntimeError(
        f"SimulationConfig fields missing from REPLAY_FIELDS/SCORE_FIELDS: "
        f"{sorted(_UNCLASSIFIED)}"
    )


class GPUSimulator:
    """Simulates one application on one system configuration."""

    def __init__(
        self,
        config: SimulationConfig,
        energy_model: EnergyModel | None = None,
        trace_cache: TraceCache | None = None,
    ) -> None:
        self.config = config
        self.performance_model = PerformanceModel(energy_model)
        self.trace_cache = trace_cache if trace_cache is not None else SHARED_TRACE_CACHE

    @property
    def energy_model(self) -> EnergyModel:
        """The energy model used by the scoring step."""
        return self.performance_model.energy_model

    # -- internal helpers ------------------------------------------------------------

    def _build_engine(self, profile: ApplicationProfile) -> MemoryHierarchyEngine:
        cfg = self.config
        cache_sm_ids = list(
            range(cfg.num_compute_sms, cfg.num_compute_sms + cfg.num_cache_sms)
        )
        compressibility = Compressibility(
            high_fraction=profile.compressible_high,
            low_fraction=profile.compressible_low,
        )
        return MemoryHierarchyEngine(
            gpu=cfg.gpu,
            morpheus=cfg.morpheus if cfg.num_cache_sms > 0 else None,
            cache_sm_ids=cache_sm_ids,
            compressibility=compressibility,
            capacity_scale=cfg.capacity_scale,
            request_interval_cycles=cfg.request_interval_cycles,
        )

    # -- the run -------------------------------------------------------------------------

    def replay(self, profile: ApplicationProfile) -> ReplayMeasurement:
        """Replay ``profile``'s trace through the hierarchy and return the measurement.

        The returned :class:`ReplayMeasurement` can be scored (and re-scored)
        by a :class:`~repro.sim.performance_model.PerformanceModel` without
        re-running the replay.
        """
        cfg = self.config
        engine = self._build_engine(profile)
        warmup, trace = self.trace_cache.traces(
            profile,
            num_compute_sms=cfg.num_compute_sms,
            scale=cfg.capacity_scale,
            seed=cfg.seed,
            warmup_accesses=cfg.warmup_accesses,
            trace_accesses=cfg.trace_accesses,
            block_size=cfg.gpu.block_size,
        )
        if len(warmup):
            engine.run(warmup)
            engine.reset_counters()
        counters = engine.run(trace)
        return ReplayMeasurement(
            counters=counters,
            noc_average_latency_cycles=engine.network.stats.average_latency_cycles,
            predictor=engine.predictor_stats() if engine.controllers else None,
        )

    def run(self, profile: ApplicationProfile) -> SimulationStats:
        """Simulate ``profile`` on the configured system and return statistics."""
        measurement = self.replay(profile)
        return self.performance_model.score(profile, self.config, measurement)


def simulate(
    profile: ApplicationProfile,
    config: SimulationConfig,
    energy_model: EnergyModel | None = None,
) -> SimulationStats:
    """Convenience wrapper: simulate ``profile`` under ``config``."""
    return GPUSimulator(config, energy_model=energy_model).run(profile)
