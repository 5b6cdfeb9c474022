"""The bottleneck (roofline-style) performance model, split from the replay.

A simulation has two halves: a **functional memory-hierarchy replay** (the
:class:`~repro.sim.engine.MemoryHierarchyEngine` driving a trace through the
cache/controller/NoC/DRAM structures) and an **analytic scoring step** that
turns the replay's counters into IPC, execution time, energy and
performance/watt.  This module holds the second half as a standalone, pure
:class:`PerformanceModel`: given one :class:`ReplayMeasurement` it can be
re-applied under different analytic parameters (peak IPC, MLP, energy
constants) without re-running the replay — which is what makes disk-cached
experiment execution cheap.  :meth:`PerformanceModel.score` scores one
config; :meth:`PerformanceModel.scorer` hands out the
:class:`~repro.sim.vector_model.MeasurementScorer` whose ``score_config`` /
``score_envelope`` pair scores many variants of one measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

from repro.core.controller import HierarchyCounters
from repro.energy.model import EnergyModel
from repro.sim.stats import SimulationStats
from repro.sim.vector_model import MeasurementScorer
from repro.workloads.applications import ApplicationProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.hit_miss_predictor import PredictorStats
    from repro.gpu.config import GPUConfig
    from repro.sim.simulator import SimulationConfig


@dataclass(frozen=True)
class ResourceEnvelope:
    """The share of each *shared* memory-system resource a run may use.

    The performance model's bandwidth limits are computed against this
    envelope instead of hardcoded whole-GPU capacities: a share of ``s``
    caps the run at ``s`` times the GPU's aggregate bandwidth on that
    channel.  The default envelope grants every channel in full, which
    reproduces the historical single-tenant numbers bit-for-bit (the
    capacities are multiplied by exactly ``1.0``).

    Only the channels *shared between concurrent residents* are enveloped:
    DRAM bandwidth, conventional-LLC bandwidth and the NoC.  Compute and
    the extended-LLC bandwidth are private — they live in the resident's
    own granted SMs — and the latency/MLP limit keeps the replay-measured
    latency (queueing inflation under contention is not modelled).

    The envelope is a pure *scoring* input: it never affects the
    functional replay, so sweeping envelopes re-scores cached
    measurements at zero replay cost (it is a
    :data:`~repro.sim.simulator.SCORE_FIELDS` entry of the config).

    Attributes:
        dram_bandwidth_share: Fraction of the aggregate DRAM bandwidth.
        llc_bandwidth_share: Fraction of the conventional-LLC bandwidth.
        noc_bandwidth_share: Fraction of the NoC bandwidth.
    """

    dram_bandwidth_share: float = 1.0
    llc_bandwidth_share: float = 1.0
    noc_bandwidth_share: float = 1.0

    def __post_init__(self) -> None:
        for name in ("dram_bandwidth_share", "llc_bandwidth_share", "noc_bandwidth_share"):
            share = getattr(self, name)
            if not 0.0 < share <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {share}")

    @property
    def is_default(self) -> bool:
        """True for the whole-GPU envelope (every share exactly 1)."""
        return (
            self.dram_bandwidth_share == 1.0
            and self.llc_bandwidth_share == 1.0
            and self.noc_bandwidth_share == 1.0
        )


#: The whole-GPU envelope: every shared channel granted in full.
DEFAULT_ENVELOPE = ResourceEnvelope()

#: The shared memory-system channels an envelope apportions, in the fixed
#: order solvers iterate them.
SHARED_CHANNELS: Tuple[str, ...] = ("dram", "llc", "noc")

#: Envelope field per shared channel.
ENVELOPE_FIELDS: Dict[str, str] = {
    "dram": "dram_bandwidth_share",
    "llc": "llc_bandwidth_share",
    "noc": "noc_bandwidth_share",
}


def shared_bandwidth_capacities(gpu: "GPUConfig") -> Dict[str, float]:
    """Whole-GPU aggregate capacity of each shared channel, in bytes/cycle.

    The measured NoC bytes cover both directions while the per-port
    bandwidth is per direction, so the aggregate NoC capacity is doubled.
    """
    return {
        "dram": gpu.dram.bytes_per_cycle_per_channel * gpu.dram.num_channels,
        "llc": gpu.llc.bytes_per_cycle_per_partition * gpu.llc.num_partitions,
        "noc": (
            2.0
            * gpu.interconnect.bytes_per_cycle_per_port
            * gpu.interconnect.num_partitions
        ),
    }


def shared_bandwidth_demand(stats: SimulationStats, gpu: "GPUConfig") -> Dict[str, float]:
    """One scored run's offered load on each shared channel, in bytes/cycle.

    Derived purely from the run's :class:`~repro.sim.stats.SimulationStats`
    at its modelled IPC — the demand signal the co-run contention solver
    turns into proportional-pressure envelope shares.  The conventional-LLC
    demand excludes extended-LLC traffic (that bandwidth is private to the
    resident's own cache-mode SMs).
    """
    dram = (
        stats.dram_bytes / stats.instructions * stats.ipc
        if stats.instructions > 0
        else 0.0
    )
    conventional_llc = (
        max(0.0, stats.llc_throughput_gbps - stats.extended_llc_throughput_gbps)
        / gpu.core_clock_ghz
    )
    return {
        "dram": dram,
        "llc": conventional_llc,
        "noc": stats.noc_injection_bytes_per_cycle,
    }


@dataclass(frozen=True)
class ReplayMeasurement:
    """Everything one trace replay produces that the scoring step consumes.

    Attributes:
        counters: Per-level hit/traffic/latency counters from the engine.
        noc_average_latency_cycles: Average one-way NoC latency observed.
        predictor: Aggregated hit/miss-predictor statistics, or ``None`` when
            the run had no Morpheus controllers.
    """

    counters: HierarchyCounters
    noc_average_latency_cycles: float = 0.0
    predictor: Optional["PredictorStats"] = None

    def to_jsonable(self) -> Dict[str, Any]:
        """Render the measurement as JSON-compatible data.

        The rendering round-trips exactly: floats survive JSON via repr, so
        :meth:`from_jsonable` rebuilds a measurement whose score is
        bit-identical to the original's.
        """
        return {
            "counters": self.counters.to_jsonable(),
            "noc_average_latency_cycles": self.noc_average_latency_cycles,
            "predictor": (
                self.predictor.to_jsonable() if self.predictor is not None else None
            ),
        }

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any]) -> "ReplayMeasurement":
        """Rebuild a measurement from :meth:`to_jsonable` output."""
        from repro.core.hit_miss_predictor import PredictorStats

        predictor = payload.get("predictor")
        return cls(
            counters=HierarchyCounters.from_jsonable(payload["counters"]),
            noc_average_latency_cycles=payload["noc_average_latency_cycles"],
            predictor=(
                PredictorStats.from_jsonable(predictor) if predictor is not None else None
            ),
        )


class PerformanceModel:
    """Scores replay measurements into :class:`SimulationStats`.

    The roofline itself lives in
    :class:`~repro.sim.vector_model.MeasurementScorer`; this class binds it
    to one set of energy constants.  The model is pure: ``score`` depends
    only on its arguments and the energy-model constants, so one replay can
    be re-scored under different analytic parameters without re-replaying
    the trace.
    """

    def __init__(self, energy_model: EnergyModel | None = None) -> None:
        self.energy_model = energy_model or EnergyModel()

    def score(
        self,
        profile: ApplicationProfile,
        config: "SimulationConfig",
        measurement: ReplayMeasurement,
    ) -> SimulationStats:
        """Turn ``measurement`` into full statistics for ``profile`` under ``config``."""
        return self.scorer(profile, config, measurement).score_config(config)

    def scorer(
        self,
        profile: ApplicationProfile,
        config: "SimulationConfig",
        measurement: ReplayMeasurement,
    ) -> MeasurementScorer:
        """A :class:`~repro.sim.vector_model.MeasurementScorer` over ``measurement``.

        The scorer hoists every replay-side invariant once; use it to score
        the same measurement under many score-tier parameter variants
        (a replay group's sweep points, per-iteration contention envelopes)
        without paying that preamble per point.
        """
        return MeasurementScorer(
            profile, config, measurement, energy_model=self.energy_model
        )
