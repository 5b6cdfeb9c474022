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
from typing import Sequence, Tuple

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
    including the best-SM-count searches — is cached on disk (replay
    measurements and scored stats in separate tiers) and can be executed by
    parallel workers; analytic-parameter changes re-score the search's
    cached measurements instead of re-replaying its traces.
    """

    name: str = "system"

    def __init__(
        self,
        gpu: GPUConfig = RTX3080_CONFIG,
        fidelity: Fidelity | str = STANDARD_FIDELITY,
        seed: int = 1,
    ) -> None:
        self.gpu = gpu
        self.fidelity = get_fidelity(fidelity)
        self.seed = seed

    @abc.abstractmethod
    def evaluate(self, profile: ApplicationProfile) -> SimulationStats:
        """Simulate ``profile`` on this system and return its statistics."""

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
        search_fidelity: bool = False,
        **kwargs,
    ) -> SimulationStats:
        from repro.runner.runner import active_runner

        config = self._config(
            gpu, num_compute_sms, power_gate_unused, search_fidelity, **kwargs
        )
        return active_runner().simulate(profile, config)

    def _best_sm_count(
        self,
        profile: ApplicationProfile,
        gpu: GPUConfig,
        candidates: Sequence[int] = DEFAULT_SM_CANDIDATES,
        power_gate_unused: bool = True,
    ) -> int:
        """Find the SM count maximizing IPC for ``profile`` on ``gpu``."""
        from repro.runner.runner import active_runner

        counts = [count for count in candidates if count <= gpu.num_sms]
        configs = [
            self._config(gpu, count, power_gate_unused, search_fidelity=True)
            for count in counts
        ]
        all_stats = active_runner().run_configs(profile, configs)
        best_count = counts[0]
        best_ipc = -1.0
        for count, stats in zip(counts, all_stats):
            if stats.ipc > best_ipc:
                best_ipc = stats.ipc
                best_count = count
        return best_count


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
    """IBL: per-application best SM count, unused SMs power-gated."""

    name = "IBL"

    def best_sm_count(self, profile: ApplicationProfile) -> int:
        """Per-application best SM count (Table 3, row 'IBL')."""
        return self._best_sm_count(profile, self.gpu)

    def evaluate(self, profile: ApplicationProfile) -> SimulationStats:
        best = self.best_sm_count(profile)
        return self._simulate(profile, self.gpu, best, power_gate_unused=True)


class IBL4xLLCSystem(EvaluatedSystem):
    """IBL-4x-LLC: the idealized baseline with a quadruple-sized conventional LLC."""

    name = "IBL-4X-LLC"

    def __init__(
        self,
        gpu: GPUConfig = RTX3080_CONFIG,
        fidelity: Fidelity = STANDARD_FIDELITY,
        scale_factor: float = 4.0,
        seed: int = 1,
    ) -> None:
        super().__init__(gpu, fidelity, seed)
        self.scale_factor = scale_factor
        self._gpu = gpu.with_llc_scale(scale_factor)

    def evaluate(self, profile: ApplicationProfile) -> SimulationStats:
        best = self._best_sm_count(profile, self._gpu)
        return self._simulate(profile, self._gpu, best, power_gate_unused=True)


class FrequencyBoostSystem(EvaluatedSystem):
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
        best = self._best_sm_count(profile, self.gpu)
        gated = self.gpu.num_sms - best
        boosted = self.gpu.with_frequency_boost(self.boost_factor(gated))
        return self._simulate(profile, boosted, best, power_gate_unused=True)


class UnifiedSMMemSystem(EvaluatedSystem):
    """Unified-SM-Mem: IBL with unused register-file space folded into the L1.

    The application is assumed to leave ~60 % of the register file unused
    (typical occupancy-limited kernels), which is added to the unified
    L1/shared capacity with no latency penalty.
    """

    name = "Unified-SM-Mem"

    def __init__(
        self,
        gpu: GPUConfig = RTX3080_CONFIG,
        fidelity: Fidelity = STANDARD_FIDELITY,
        unused_register_fraction: float = 0.6,
        seed: int = 1,
    ) -> None:
        super().__init__(gpu, fidelity, seed)
        if not 0.0 <= unused_register_fraction <= 1.0:
            raise ValueError("unused_register_fraction must be in [0, 1]")
        self.unused_register_fraction = unused_register_fraction
        extra = int(gpu.register_file_bytes_per_sm * unused_register_fraction)
        self._gpu = gpu.with_extra_l1(extra)

    def evaluate(self, profile: ApplicationProfile) -> SimulationStats:
        best = self._best_sm_count(profile, self._gpu)
        return self._simulate(profile, self._gpu, best, power_gate_unused=True)
