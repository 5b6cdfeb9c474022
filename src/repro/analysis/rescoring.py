"""Analytic re-scoring sweeps over a warm measurement cache.

Calibration and sensitivity studies sweep the *analytic* parameters of the
performance model — outstanding requests per SM (``mlp_per_sm``), peak warp
IPC (``peak_warp_ipc_per_sm``), the shared-bandwidth
:class:`~repro.sim.performance_model.ResourceEnvelope` and the
:class:`~repro.energy.components.ComponentEnergies` constants — while the
functional hierarchy replay they score is unchanged.  Under the two-phase
pipeline those sweeps are nearly free: every variant shares the replay key
of the base run, so the :class:`~repro.runner.runner.ExperimentRunner`
serves the measurement tier and re-runs only the pure scoring step.

All helpers execute through a runner (the process-wide one by default) and
return plain ``{parameter: SimulationStats}`` mappings.  After a sweep over
an already-replayed configuration, ``runner.replays`` has not moved — the
property the dense sensitivity figures rely on.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

from repro.energy.components import ComponentEnergies
from repro.runner.runner import ExperimentRunner, active_runner
from repro.sim.performance_model import ResourceEnvelope
from repro.sim.simulator import SimulationConfig
from repro.sim.stats import SimulationStats
from repro.workloads.applications import ApplicationProfile, get_application

#: Default MLP grid for sensitivity studies (requests per SM).
DEFAULT_MLP_GRID: Tuple[float, ...] = (80.0, 160.0, 240.0, 320.0, 480.0)

#: Default peak-warp-IPC grid for sensitivity studies.
DEFAULT_PEAK_IPC_GRID: Tuple[float, ...] = (2.0, 3.0, 4.0, 5.0, 6.0)


def _profile(application: str | ApplicationProfile) -> ApplicationProfile:
    if isinstance(application, ApplicationProfile):
        return application
    return get_application(application)


def mlp_sweep(
    application: str | ApplicationProfile,
    config: SimulationConfig,
    mlp_values: Sequence[float] = DEFAULT_MLP_GRID,
    runner: Optional[ExperimentRunner] = None,
) -> Dict[float, SimulationStats]:
    """Re-score ``config`` under each ``mlp_per_sm`` value (zero replays when warm)."""
    runner = runner or active_runner()
    profile = _profile(application)
    configs = [
        dataclasses.replace(config, mlp_per_sm=value) for value in mlp_values
    ]
    stats = runner.run_configs(profile, configs)
    return dict(zip(mlp_values, stats))


def peak_ipc_sweep(
    application: str | ApplicationProfile,
    config: SimulationConfig,
    peak_ipc_values: Sequence[float] = DEFAULT_PEAK_IPC_GRID,
    runner: Optional[ExperimentRunner] = None,
) -> Dict[float, SimulationStats]:
    """Re-score ``config`` under each ``peak_warp_ipc_per_sm`` value."""
    runner = runner or active_runner()
    profile = _profile(application)
    configs = [
        dataclasses.replace(config, peak_warp_ipc_per_sm=value)
        for value in peak_ipc_values
    ]
    stats = runner.run_configs(profile, configs)
    return dict(zip(peak_ipc_values, stats))


def analytic_grid(
    application: str | ApplicationProfile,
    config: SimulationConfig,
    mlp_values: Sequence[float] = DEFAULT_MLP_GRID,
    peak_ipc_values: Sequence[float] = DEFAULT_PEAK_IPC_GRID,
    runner: Optional[ExperimentRunner] = None,
) -> Dict[Tuple[float, float], SimulationStats]:
    """Dense (mlp, peak IPC) cross product, keyed by ``(mlp, peak_ipc)``.

    The whole grid shares one replay key with ``config``, so a warm
    measurement cache scores ``len(mlp_values) * len(peak_ipc_values)``
    points without a single trace replay.
    """
    runner = runner or active_runner()
    profile = _profile(application)
    points = [(mlp, ipc) for mlp in mlp_values for ipc in peak_ipc_values]
    configs = [
        dataclasses.replace(config, mlp_per_sm=mlp, peak_warp_ipc_per_sm=ipc)
        for mlp, ipc in points
    ]
    stats = runner.run_configs(profile, configs)
    return dict(zip(points, stats))


def envelope_sweep(
    application: str | ApplicationProfile,
    config: SimulationConfig,
    envelopes: Sequence[ResourceEnvelope],
    runner: Optional[ExperimentRunner] = None,
) -> Dict[ResourceEnvelope, SimulationStats]:
    """Re-score ``config`` under each shared-bandwidth envelope.

    The envelope is a score-only config field, so the whole sweep shares
    one replay key with the base run: over a warm measurement tier it
    models a tenant's sensitivity to losing DRAM/LLC/NoC share — the
    building block of co-run contention studies — without a single trace
    replay.
    """
    runner = runner or active_runner()
    profile = _profile(application)
    configs = [
        dataclasses.replace(config, envelope=envelope) for envelope in envelopes
    ]
    stats = runner.run_configs(profile, configs)
    return dict(zip(envelopes, stats))


def energy_sweep(
    application: str | ApplicationProfile,
    config: SimulationConfig,
    energies_grid: Sequence[ComponentEnergies],
    runner: Optional[ExperimentRunner] = None,
) -> Dict[ComponentEnergies, SimulationStats]:
    """Re-score ``config`` under each set of energy constants.

    Energy constants key the stats tier, not the replay tier, so the whole
    grid shares one measurement fetch: the cold points are scored via
    :meth:`~repro.runner.runner.ExperimentRunner.score_energy_grid` (an
    unexpectedly cold replay still lands on ``runner.replays``, keeping
    "replays has not moved" a truthful check).
    """
    runner = runner or active_runner()
    profile = _profile(application)
    energies_list = list(energies_grid)
    stats = runner.score_energy_grid(profile, config, energies_list)
    return dict(zip(energies_list, stats))
