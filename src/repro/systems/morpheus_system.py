"""The Morpheus evaluated systems: Basic, Compression, Indirect-MOV and ALL (§6).

Each Morpheus variant searches offline (as the paper does) for the number of
GPU cores to leave in compute mode per application; the remaining cores go to
cache mode up to the 75 % cap, and anything beyond that is power-gated.
Compute-bound applications keep every SM in compute mode, so Morpheus does
not disturb them (Fig. 12).

The search's candidate runs execute through the process-wide runner's
two-phase pipeline, so each (compute, cache) split is replayed at most once
per fidelity/seed; repeating a search under different analytic parameters
re-scores the cached measurements at zero replay cost.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Sequence

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
        compute_sm_candidates: Candidate compute-mode SM counts searched per
            application.
    """

    def __init__(
        self,
        variant: MorpheusVariant = MorpheusVariant.ALL,
        gpu: GPUConfig = RTX3080_CONFIG,
        fidelity: Fidelity = STANDARD_FIDELITY,
        predictor: str = "bloom",
        compute_sm_candidates: Sequence[int] = DEFAULT_SM_CANDIDATES,
        seed: int = 1,
    ) -> None:
        super().__init__(gpu, fidelity, seed)
        self.variant = variant
        self.predictor = predictor
        self.morpheus_config = variant.to_config(predictor)
        self.compute_sm_candidates = tuple(compute_sm_candidates)
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

    def operating_point(self, profile: ApplicationProfile) -> MorpheusOperatingPoint:
        """The per-application best compute/cache split (Table 3 rows)."""
        cached = self._operating_points.get(profile.name)
        if cached is not None:
            return cached

        if profile.workload_class == WorkloadClass.COMPUTE_BOUND:
            point = MorpheusOperatingPoint(self.gpu.num_sms, 0, 0)
            self._operating_points[profile.name] = point
            return point

        from repro.runner.runner import active_runner

        candidates = [
            (compute, self._cache_sms_for(compute))
            for compute in self.compute_sm_candidates
            if compute <= self.gpu.num_sms
        ]
        configs = [
            self._point_config(compute, cache, search_fidelity=True)
            for compute, cache in candidates
        ]
        all_stats = active_runner().run_configs(profile, configs)
        best_point = MorpheusOperatingPoint(self.gpu.num_sms, 0, 0)
        best_ipc = -1.0
        for (compute, cache), stats in zip(candidates, all_stats):
            if stats.ipc > best_ipc:
                best_ipc = stats.ipc
                best_point = MorpheusOperatingPoint(
                    compute, cache, self.gpu.num_sms - compute - cache
                )
        self._operating_points[profile.name] = best_point
        return best_point

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

    def _simulate_point(
        self,
        profile: ApplicationProfile,
        num_compute_sms: int,
        num_cache_sms: int,
        search_fidelity: bool = False,
    ) -> SimulationStats:
        from repro.runner.runner import active_runner

        config = self._point_config(num_compute_sms, num_cache_sms, search_fidelity)
        return active_runner().simulate(profile, config)

    def evaluate(self, profile: ApplicationProfile) -> SimulationStats:
        point = self.operating_point(profile)
        return self._simulate_point(profile, point.num_compute_sms, point.num_cache_sms)
