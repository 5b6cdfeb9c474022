"""The five non-Morpheus evaluated systems (§6).

* **BL** — the plain RTX 3080 baseline using all 68 SMs.  For fairness the
  paper adds Morpheus's extra per-partition storage (21 KiB x 10 partitions)
  to BL's conventional LLC; we do the same.
* **IBL** — improved baseline: use the per-application best number of SMs and
  power-gate the rest.
* **IBL-4x-LLC** — IBL with a 4x conventional LLC (no latency/power penalty);
  the paper's idealized upper bound.
* **Frequency-Boost** — IBL that spends the power saved by gated SMs on
  running the memory system (NoC, LLC, DRAM) 10-20 % faster.
* **Unified-SM-Mem** — IBL with the unused register file space folded into
  the L1 data cache (no latency penalty).
"""

from __future__ import annotations

import abc
from typing import List, Optional, Tuple

from repro.gpu.config import GPUConfig, RTX3080_CONFIG
from repro.sim.simulator import SimulationConfig
from repro.sim.stats import SimulationStats
from repro.systems.fidelity import Fidelity, STANDARD_FIDELITY, get_fidelity
from repro.workloads.applications import ApplicationProfile

#: Candidate SM counts used by best-configuration searches (spanning the
#: 10..68 range of Figure 1 at roughly even spacing).
DEFAULT_SM_CANDIDATES: Tuple[int, ...] = (10, 18, 24, 34, 42, 53, 60, 68)


class EvaluatedSystem(abc.ABC):
    """Base class for one evaluated system configuration.

    All simulations route through the process-wide
    :class:`~repro.runner.runner.ExperimentRunner`, so every leaf run —
    including the operating-point searches — is cached on disk (replay
    measurements and scored stats in separate tiers) and can be executed by
    parallel workers; analytic-parameter changes re-score the search's
    cached measurements instead of re-replaying its traces.  A search keeps
    the first of its candidates with the highest IPC, and replays only the
    candidates whose compute roof can still reach the best IPC scored so far
    (:meth:`~repro.runner.runner.ExperimentRunner.best_ipc_index`).
    """

    name: str = "system"

    def __init__(
        self,
        gpu: GPUConfig = RTX3080_CONFIG,
        fidelity: Fidelity = STANDARD_FIDELITY,
        seed: int = 1,
    ) -> None:
        self.gpu = gpu
        self.fidelity = get_fidelity(fidelity)
        self.seed = seed

    @abc.abstractmethod
    def evaluate(self, profile: ApplicationProfile) -> SimulationStats:
        """Simulate ``profile`` on this system and return its statistics."""

    def search_configs(self, profile: ApplicationProfile) -> List[SimulationConfig]:
        """The search-sized candidate configs of ``profile``'s operating point.

        In candidate order; empty when the system searches nothing for
        ``profile``.
        """
        return []

    # -- shared helpers ----------------------------------------------------------

    def _config(
        self,
        gpu: GPUConfig,
        num_compute_sms: int,
        power_gate_unused: bool,
        search_fidelity: bool = False,
        **kwargs,
    ) -> SimulationConfig:
        kwargs.setdefault("seed", self.seed)
        return self.fidelity.config(
            search_fidelity,
            gpu=gpu,
            num_compute_sms=num_compute_sms,
            power_gate_unused=power_gate_unused,
            system_name=self.name,
            **kwargs,
        )

    def _simulate(
        self,
        profile: ApplicationProfile,
        gpu: GPUConfig,
        num_compute_sms: int,
        power_gate_unused: bool,
        **kwargs,
    ) -> SimulationStats:
        from repro.runner.runner import active_runner

        config = self._config(gpu, num_compute_sms, power_gate_unused, **kwargs)
        return active_runner().simulate(profile, config)

    def _search(self, profile: ApplicationProfile) -> Optional[SimulationConfig]:
        """The first best-IPC config of :meth:`search_configs` (``None`` if none)."""
        from repro.runner.runner import active_runner

        configs = self.search_configs(profile)
        best = active_runner().best_ipc_index(profile, configs)
        return None if best is None else configs[best]


class BaselineSystem(EvaluatedSystem):
    """BL: all 68 SMs active, conventional LLC enlarged by Morpheus's storage budget."""

    name = "BL"

    def __init__(
        self,
        gpu: GPUConfig = RTX3080_CONFIG,
        fidelity: Fidelity = STANDARD_FIDELITY,
        seed: int = 1,
    ) -> None:
        super().__init__(gpu, fidelity, seed)
        # Fairness adjustment: fold the 21 KiB x num_partitions of Morpheus
        # controller storage into BL's conventional LLC.
        extra = 21 * 1024 * gpu.llc.num_partitions
        self._gpu = gpu.with_llc_capacity(gpu.llc.capacity_bytes + extra)

    def evaluate(self, profile: ApplicationProfile) -> SimulationStats:
        return self._simulate(
            profile, self._gpu, self._gpu.num_sms, power_gate_unused=False
        )


class ImprovedBaselineSystem(EvaluatedSystem):
    """IBL: per-application best SM count, unused SMs power-gated.

    The other three IBL-family systems search and run the same way on the
    GPU they change (``_gpu``); Frequency-Boost also boosts the memory
    clocks of the GPU it runs the chosen count on.
    """

    name = "IBL"

    def __init__(
        self,
        gpu: GPUConfig = RTX3080_CONFIG,
        fidelity: Fidelity = STANDARD_FIDELITY,
        seed: int = 1,
    ) -> None:
        super().__init__(gpu, fidelity, seed)
        self._gpu = gpu

    def search_configs(self, profile: ApplicationProfile) -> List[SimulationConfig]:
        return [
            self._config(self._gpu, count, power_gate_unused=True, search_fidelity=True)
            for count in DEFAULT_SM_CANDIDATES
            if count <= self._gpu.num_sms
        ]

    def best_sm_count(self, profile: ApplicationProfile) -> int:
        """Per-application best SM count (Table 3, row 'IBL').

        Every SM when no candidate fits the GPU.
        """
        best = self._search(profile)
        return self._gpu.num_sms if best is None else best.num_compute_sms

    def evaluate(self, profile: ApplicationProfile) -> SimulationStats:
        best = self.best_sm_count(profile)
        return self._simulate(profile, self._gpu, best, power_gate_unused=True)


class IBL4xLLCSystem(ImprovedBaselineSystem):
    """IBL-4x-LLC: the idealized baseline with a quadruple-sized conventional LLC."""

    name = "IBL-4X-LLC"

    def __init__(
        self,
        gpu: GPUConfig = RTX3080_CONFIG,
        fidelity: Fidelity = STANDARD_FIDELITY,
        seed: int = 1,
    ) -> None:
        super().__init__(gpu, fidelity, seed)
        self._gpu = gpu.with_llc_scale(4.0)


class FrequencyBoostSystem(ImprovedBaselineSystem):
    """Frequency-Boost: IBL with 10-20 % faster memory-system clocks.

    The boost factor grows with the number of power-gated SMs, mirroring the
    paper's description of reinvesting the gated cores' power budget.
    """

    name = "Frequency-Boost"

    def boost_factor(self, num_gated_sms: int) -> float:
        """Memory-system frequency multiplier for ``num_gated_sms`` gated SMs."""
        if num_gated_sms < 0:
            raise ValueError("num_gated_sms must be non-negative")
        fraction_gated = num_gated_sms / self.gpu.num_sms
        return 1.0 + min(0.20, 0.10 + 0.10 * fraction_gated)

    def evaluate(self, profile: ApplicationProfile) -> SimulationStats:
        best = self.best_sm_count(profile)
        gated = self.gpu.num_sms - best
        boosted = self.gpu.with_frequency_boost(self.boost_factor(gated))
        return self._simulate(profile, boosted, best, power_gate_unused=True)


class UnifiedSMMemSystem(ImprovedBaselineSystem):
    """Unified-SM-Mem: IBL with unused register-file space folded into the L1.

    The application is assumed to leave 60 % of the register file unused
    (typical occupancy-limited kernels), which is added to the unified
    L1/shared capacity with no latency penalty.
    """

    name = "Unified-SM-Mem"

    def __init__(
        self,
        gpu: GPUConfig = RTX3080_CONFIG,
        fidelity: Fidelity = STANDARD_FIDELITY,
        seed: int = 1,
    ) -> None:
        super().__init__(gpu, fidelity, seed)
        self._gpu = gpu.with_extra_l1(int(gpu.register_file_bytes_per_sm * 0.6))
