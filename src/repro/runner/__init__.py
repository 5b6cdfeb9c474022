"""Parallel, disk-cached, two-phase experiment execution.

This package is the single execution path for every simulation in the
repository.  Describe a run matrix with :class:`ExperimentSpec`, expand it
to an :class:`ExperimentPlan` of cells, and execute it with an
:class:`ExperimentRunner` — the workers of its persistent process pool
share one content-addressed on-disk cache with two tiers: raw replay
measurements (keyed by :meth:`RunSpec.replay_key`) and scored results
(keyed by :meth:`RunSpec.score_key`).  Every scored leaf runs through
:meth:`ExperimentRunner.run_leaves`.  Re-running a plan (or any figure
script that overlaps one) costs only JSON loads, a run restarted after a
crash resumes from the entries its predecessor stored, and re-scoring
under different analytic parameters (MLP, peak IPC — e.g. via
``ExperimentRunner.run_configs`` or :mod:`repro.analysis.rescoring` — or
energy constants, via a runner built with ``energy_model=`` on the same
cache directory) hits the measurement tier and never re-replays a trace.
"""

from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.runner.runner import (
    CACHE_MAX_BYTES_ENV,
    ExperimentResult,
    ExperimentRunner,
    active_runner,
    set_active_runner,
    using_runner,
)
from repro.runner.spec import (
    REPLAY_SCHEMA_VERSION,
    SCORE_SCHEMA_VERSION,
    ExperimentCell,
    ExperimentPlan,
    ExperimentSpec,
    RunSpec,
    content_hash,
)

__all__ = [
    "CACHE_MAX_BYTES_ENV",
    "DEFAULT_CACHE_DIR",
    "ExperimentCell",
    "ExperimentPlan",
    "ExperimentResult",
    "ExperimentRunner",
    "ExperimentSpec",
    "REPLAY_SCHEMA_VERSION",
    "ResultCache",
    "RunSpec",
    "SCORE_SCHEMA_VERSION",
    "active_runner",
    "content_hash",
    "set_active_runner",
    "using_runner",
]
