"""Parameter sweeps behind Figures 1 and 2.

* :func:`sm_count_sweep` — normalized IPC as the number of SMs grows from 10
  to 68 (Figure 1).
* :func:`llc_scaling_sweep` — best-configuration speedup with 2x and 4x
  conventional LLC capacities (Figure 2).

All sweeps execute through an :class:`~repro.runner.runner.ExperimentRunner`
(the process-wide one by default), so the individual simulations are
disk-cached and can be fanned out over worker processes.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.gpu.config import GPUConfig, RTX3080_CONFIG
from repro.runner.runner import ExperimentRunner, active_runner
from repro.sim.simulator import SimulationConfig
from repro.sim.stats import SimulationStats
from repro.systems.fidelity import Fidelity, STANDARD_FIDELITY
from repro.workloads.applications import ApplicationProfile, get_application

#: SM counts plotted on the Figure 1 x-axes.
FIGURE1_SM_COUNTS: Tuple[int, ...] = (10, 20, 30, 42, 50, 60, 68)


def sweep_config(
    gpu: GPUConfig,
    num_compute_sms: int,
    fidelity: Fidelity,
    power_gate_unused: bool = True,
    system_name: str = "sweep",
    seed: int = 1,
) -> SimulationConfig:
    """The config of one Figure-1-style sweep point.

    Public so analytic re-scoring sweeps (:mod:`repro.analysis.rescoring`)
    can address the very same replay keys the sweep populated.
    """
    return fidelity.config(
        gpu=gpu,
        num_compute_sms=num_compute_sms,
        power_gate_unused=power_gate_unused,
        system_name=system_name,
        seed=seed,
    )


def sm_count_sweep(
    application: str | ApplicationProfile,
    sm_counts: Sequence[int] = FIGURE1_SM_COUNTS,
    gpu: GPUConfig = RTX3080_CONFIG,
    fidelity: Fidelity = STANDARD_FIDELITY,
    runner: Optional[ExperimentRunner] = None,
) -> Dict[int, SimulationStats]:
    """Simulate one application at each SM count (Figure 1 raw data)."""
    profile = application if isinstance(application, ApplicationProfile) else get_application(application)
    runner = runner or active_runner()
    counts = [count for count in sm_counts if count <= gpu.num_sms]
    configs = [sweep_config(gpu, count, fidelity) for count in counts]
    stats = runner.run_configs(profile, configs)
    return dict(zip(counts, stats))


def normalized_ipc_curve(
    sweep: Dict[int, SimulationStats]
) -> Dict[int, float]:
    """Normalize a SM-count sweep to its smallest SM count (the Figure 1 y-axis)."""
    if not sweep:
        return {}
    base_count = min(sweep)
    base_ipc = sweep[base_count].ipc
    if base_ipc <= 0:
        raise ValueError("baseline IPC must be positive")
    return {count: stats.ipc / base_ipc for count, stats in sorted(sweep.items())}


def best_configuration(
    application: str | ApplicationProfile,
    gpu: GPUConfig,
    sm_candidates: Sequence[int] = FIGURE1_SM_COUNTS,
    fidelity: Fidelity = STANDARD_FIDELITY,
    runner: Optional[ExperimentRunner] = None,
) -> Tuple[int, SimulationStats]:
    """Best SM count and its stats for ``application`` on ``gpu``."""
    sweep = sm_count_sweep(application, sm_candidates, gpu, fidelity, runner=runner)
    if not sweep:
        raise ValueError("no SM candidate fits the GPU")
    best_count = max(sweep, key=lambda count: sweep[count].ipc)
    return best_count, sweep[best_count]


def llc_scaling_sweep(
    application: str | ApplicationProfile,
    scale_factors: Sequence[float] = (1.0, 2.0, 4.0),
    gpu: GPUConfig = RTX3080_CONFIG,
    fidelity: Fidelity = STANDARD_FIDELITY,
    sm_candidates: Sequence[int] = FIGURE1_SM_COUNTS,
    runner: Optional[ExperimentRunner] = None,
) -> Dict[float, SimulationStats]:
    """Best-configuration performance at several conventional LLC sizes (Figure 2).

    For each LLC scale factor, the SM count is re-optimized (the paper varies
    the core count and reports the maximum observed performance).
    """
    profile = application if isinstance(application, ApplicationProfile) else get_application(application)
    results: Dict[float, SimulationStats] = {}
    for factor in scale_factors:
        scaled_gpu = gpu if factor == 1.0 else gpu.with_llc_scale(factor)
        _, stats = best_configuration(
            profile, scaled_gpu, sm_candidates, fidelity, runner=runner
        )
        results[factor] = stats
    return results


def llc_scaling_speedups(sweep: Dict[float, SimulationStats]) -> Dict[float, float]:
    """Normalized IPC relative to the 1x LLC entry (the Figure 2 y-axis)."""
    if 1.0 not in sweep:
        raise ValueError("the sweep must include the 1.0x baseline")
    base = sweep[1.0].ipc
    if base <= 0:
        raise ValueError("baseline IPC must be positive")
    return {factor: stats.ipc / base for factor, stats in sorted(sweep.items())}
