"""The Morpheus evaluated systems: Basic, Compression, Indirect-MOV and ALL (§6).

Each Morpheus variant searches offline (as the paper does) for the number of
GPU cores to leave in compute mode per application; the remaining cores go to
cache mode up to the 75 % cap, and anything beyond that is power-gated.
Compute-bound applications keep every SM in compute mode, so Morpheus does
not disturb them (Fig. 12).

The search's candidate runs execute through the process-wide runner's
two-phase pipeline, so each (compute, cache) split is replayed at most once
per fidelity/seed; repeating a search under different analytic parameters
re-scores the cached measurements at zero replay cost.  A split whose
compute roof is below the best IPC already scored cannot win, and is not
replayed at all
(:meth:`~repro.runner.runner.ExperimentRunner.best_ipc_index`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from repro.core.config import MorpheusConfig
from repro.gpu.config import GPUConfig, RTX3080_CONFIG
from repro.sim.simulator import SimulationConfig
from repro.sim.stats import SimulationStats
from repro.systems.baseline import DEFAULT_SM_CANDIDATES, EvaluatedSystem
from repro.systems.fidelity import Fidelity, STANDARD_FIDELITY
from repro.workloads.applications import ApplicationProfile, WorkloadClass


class MorpheusVariant(enum.Enum):
    """The four Morpheus configurations of Figure 12."""

    BASIC = "Morpheus-Basic"
    COMPRESSION = "Morpheus-Compression"
    INDIRECT_MOV = "Morpheus-Indirect-MOV"
    ALL = "Morpheus-ALL"

    def to_config(self, predictor: str = "bloom") -> MorpheusConfig:
        """Build the :class:`MorpheusConfig` for this variant."""
        return MorpheusConfig(
            enable_compression=self in (MorpheusVariant.COMPRESSION, MorpheusVariant.ALL),
            enable_indirect_mov_isa=self in (MorpheusVariant.INDIRECT_MOV, MorpheusVariant.ALL),
            predictor=predictor,
        )


@dataclass(frozen=True)
class MorpheusOperatingPoint:
    """A chosen split of SMs between compute mode, cache mode and power gating."""

    num_compute_sms: int
    num_cache_sms: int
    num_gated_sms: int


class MorpheusSystem(EvaluatedSystem):
    """One Morpheus variant as an evaluated system.

    Args:
        variant: Which optimization combination to run.
        gpu: Baseline GPU configuration.
        fidelity: Trace sizing preset.
        predictor: Hit/miss predictor flavour (``"bloom"``, ``"none"``,
            ``"perfect"``) — Figure 13 varies this on Morpheus-Basic.
        seed: Trace-generation seed of every leaf.
    """

    def __init__(
        self,
        variant: MorpheusVariant = MorpheusVariant.ALL,
        gpu: GPUConfig = RTX3080_CONFIG,
        fidelity: Fidelity = STANDARD_FIDELITY,
        predictor: str = "bloom",
        seed: int = 1,
    ) -> None:
        super().__init__(gpu, fidelity, seed)
        self.variant = variant
        self.predictor = predictor
        self.morpheus_config = variant.to_config(predictor)
        self.name = variant.value
        if predictor != "bloom":
            self.name = f"{variant.value}({predictor})"
        self._operating_points: Dict[str, MorpheusOperatingPoint] = {}

    # -- operating point selection ------------------------------------------------------

    def _cache_sms_for(self, num_compute_sms: int) -> int:
        """Cache-mode SMs available when ``num_compute_sms`` SMs compute.

        At most 75 % of all SMs may be in cache mode (§4.1.3); any remaining
        SMs are power-gated.
        """
        max_cache = int(self.gpu.num_sms * self.morpheus_config.max_cache_mode_fraction)
        return max(0, min(self.gpu.num_sms - num_compute_sms, max_cache))

    def search_configs(self, profile: ApplicationProfile) -> List[SimulationConfig]:
        """One split per candidate compute-SM count that fits the GPU.

        Empty for a compute-bound application, which keeps every SM computing.
        """
        if profile.workload_class == WorkloadClass.COMPUTE_BOUND:
            return []
        return [
            self._point_config(compute, self._cache_sms_for(compute), search_fidelity=True)
            for compute in DEFAULT_SM_CANDIDATES
            if compute <= self.gpu.num_sms
        ]

    def operating_point(self, profile: ApplicationProfile) -> MorpheusOperatingPoint:
        """The per-application best compute/cache split (Table 3 rows).

        Every SM computes when the search has no candidate.
        """
        point = self._operating_points.get(profile.name)
        if point is None:
            best = self._search(profile)
            if best is None:
                point = MorpheusOperatingPoint(self.gpu.num_sms, 0, 0)
            else:
                compute, cache = best.num_compute_sms, best.num_cache_sms
                point = MorpheusOperatingPoint(
                    compute, cache, self.gpu.num_sms - compute - cache
                )
            self._operating_points[profile.name] = point
        return point

    # -- simulation ------------------------------------------------------------------------

    def _point_config(
        self,
        num_compute_sms: int,
        num_cache_sms: int,
        search_fidelity: bool = False,
    ) -> SimulationConfig:
        return self._config(
            self.gpu,
            num_compute_sms,
            power_gate_unused=True,
            search_fidelity=search_fidelity,
            morpheus=self.morpheus_config if num_cache_sms > 0 else None,
            num_cache_sms=num_cache_sms,
        )

    def evaluate(self, profile: ApplicationProfile) -> SimulationStats:
        from repro.runner.runner import active_runner

        point = self.operating_point(profile)
        config = self._point_config(point.num_compute_sms, point.num_cache_sms)
        return active_runner().simulate(profile, config)
