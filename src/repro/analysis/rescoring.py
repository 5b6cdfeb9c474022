"""Analytic re-scoring sweeps over a warm measurement cache.

Calibration and sensitivity studies sweep the *analytic* parameters of the
performance model — outstanding requests per SM (``mlp_per_sm``) and the
shared-bandwidth :class:`~repro.sim.performance_model.ResourceEnvelope` —
while the functional hierarchy replay they score is unchanged.  Under the
two-phase pipeline those sweeps are nearly free: every variant shares the
replay key of the base run, so the
:class:`~repro.runner.runner.ExperimentRunner` serves the measurement tier
and re-runs only the pure scoring step.  Energy constants are re-scored the
same way by a runner built with ``energy_model=`` on the same cache
directory.

Both helpers execute through a runner (the process-wide one by default) and
return plain ``{parameter: SimulationStats}`` mappings.  After a sweep over
an already-replayed configuration, ``runner.replays`` has not moved.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

from repro.runner.runner import ExperimentRunner, active_runner
from repro.sim.performance_model import ResourceEnvelope
from repro.sim.simulator import SimulationConfig
from repro.sim.stats import SimulationStats
from repro.workloads.applications import ApplicationProfile, get_application

#: Default MLP grid for sensitivity studies (requests per SM).
DEFAULT_MLP_GRID: Tuple[float, ...] = (80.0, 160.0, 240.0, 320.0, 480.0)


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

