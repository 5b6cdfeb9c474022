"""Parallel, disk-cached, two-phase execution of simulation plans.

:class:`ExperimentRunner` is the single execution path for every simulation
in the repository.  Each leaf simulation runs in two content-addressed
phases backed by the two tiers of the on-disk
:class:`~repro.runner.cache.ResultCache` (plus in-process dict layers):

1. **Replay** — the functional hierarchy replay producing a
   :class:`~repro.sim.performance_model.ReplayMeasurement`, cached under
   :meth:`~repro.runner.spec.RunSpec.replay_key`.  This is the expensive,
   deterministic phase; it runs **at most once per replay key**.
2. **Score** — the pure analytic scoring of a measurement into
   :class:`~repro.sim.stats.SimulationStats`, cached under
   :meth:`~repro.runner.spec.RunSpec.score_key`.  Sweeping analytic
   parameters (peak IPC, MLP, energy constants) only misses this cheap
   tier — the measurement tier hits and no trace is re-replayed.

* ``run_leaves`` is the one leaf pipeline: it runs a batch of (profile,
  config) leaves, groups the score-tier misses by replay key, farms the
  missing *replays* (not whole simulations) out to a
  ``ProcessPoolExecutor`` (with a transparent serial fallback when
  multiprocessing is unavailable or ``max_workers <= 1``), and scores each
  replay group in-process through one
  :class:`~repro.sim.vector_model.MeasurementScorer`.  ``run_configs`` is
  a batch for one profile and ``simulate`` a batch of one leaf.  Analytic
  re-scoring sweeps are plain ``run_configs`` batches that hit the
  measurement tier; an energy sweep is one runner per ``energy_model=``
  on a shared cache directory.
* ``best_ipc_index`` is the operating-point search of every evaluated
  system and of Figure 2's best configuration: the first of a batch of
  configs with the highest IPC, found by branch and bound over the compute
  roof, so a candidate that cannot win is never replayed.
* ``measurement_for`` / ``scorer_for`` split the two phases for callers
  that score one measurement many times in-process (the contention
  solver).
* ``run_plan`` executes the cells of a declarative
  :class:`~repro.runner.spec.ExperimentSpec` matrix in parallel; each
  worker shares the same on-disk cache, so a warm re-run of a plan costs
  only JSON loads.

Determinism: traces are seeded with process-independent hashes, every cell
carries its own seed, and measurements round-trip JSON exactly, so serial
and parallel execution — and direct runs vs cached-measurement re-scores —
produce bit-identical :class:`~repro.sim.stats.SimulationStats`.
"""

from __future__ import annotations

import os
import time
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.energy.components import DEFAULT_ENERGIES
from repro.energy.model import EnergyModel
from repro.runner.cache import ResultCache
from repro.runner.spec import ExperimentCell, ExperimentSpec, RunSpec
from repro.sim.performance_model import PerformanceModel, ReplayMeasurement
from repro.sim.simulator import GPUSimulator, SimulationConfig
from repro.sim.stats import SimulationStats
from repro.sim.vector_model import compute_limit
from repro.telemetry import telemetry
from repro.workloads.applications import ApplicationProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.vector_model import MeasurementScorer

#: Environment variable setting the default worker count (0 = serial).
WORKERS_ENV = "REPRO_RUNNER_WORKERS"

#: Environment variable disabling the on-disk cache when set to ``0``.
DISK_CACHE_ENV = "REPRO_DISK_CACHE"

#: Environment variable capping the on-disk cache size in bytes.  When set,
#: the runner applies the LRU-by-mtime prune after each completed plan or
#: scenario run (the same cap ``python -m repro.runner prune --max-bytes``
#: applies manually).
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"


@dataclass
class ExperimentResult:
    """Results of one executed spec, keyed by cell."""

    spec: ExperimentSpec
    results: Dict[ExperimentCell, SimulationStats]
    elapsed_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[Tuple[ExperimentCell, SimulationStats]]:
        for cell in self.spec.cells:
            yield cell, self.results[cell]

    def get(
        self, system: str, application: str, seed: Optional[int] = None
    ) -> SimulationStats:
        """The stats of one cell (``seed`` may be omitted when unambiguous)."""
        matches = [
            stats
            for cell, stats in self.results.items()
            if cell.system == system
            and cell.application == application
            and (seed is None or cell.seed == seed)
        ]
        if not matches:
            raise KeyError(f"no result for ({system!r}, {application!r})")
        if len(matches) > 1:
            raise KeyError(f"({system!r}, {application!r}) is ambiguous; pass seed")
        return matches[0]

    def by_application(self, application: str) -> Dict[str, SimulationStats]:
        """``{system: stats}`` for one application.

        Raises ``KeyError`` when the plan has several cells per system for
        ``application`` (multiple seeds) — use :meth:`get` with ``seed`` to
        disambiguate instead of silently collapsing.
        """
        by_system: Dict[str, SimulationStats] = {}
        for cell, stats in self.results.items():
            if cell.application != application:
                continue
            if cell.system in by_system:
                raise KeyError(
                    f"plan has multiple cells for ({cell.system!r}, {application!r}); "
                    "use get(seed=...)"
                )
            by_system[cell.system] = stats
        return by_system


class ExperimentRunner:
    """Executes leaf simulations, config batches and experiment plans.

    Args:
        cache_dir: On-disk cache directory (default: ``$REPRO_CACHE_DIR`` or
            ``.repro_cache``).
        max_workers: Worker processes for batch/plan execution.  ``None``
            reads ``$REPRO_RUNNER_WORKERS`` (default 0); values <= 1 run
            serially in-process.
        use_disk_cache: Persist results to disk (``$REPRO_DISK_CACHE=0``
            disables the default).
        energy_model: Energy model shared by all runs.
        backend: Accepted for existing callers; only ``"local"`` (the
            persistent process pool) exists.  Any other value raises
            ``ValueError``.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        max_workers: Optional[int] = None,
        use_disk_cache: Optional[bool] = None,
        energy_model: Optional[EnergyModel] = None,
        backend: str = "local",
    ) -> None:
        if backend != "local":
            raise ValueError(
                f"unknown runner backend {backend!r}: the experiment service "
                "was removed; the local process pool is the only backend"
            )
        if max_workers is None:
            max_workers = int(os.environ.get(WORKERS_ENV, "0") or 0)
        if use_disk_cache is None:
            use_disk_cache = os.environ.get(DISK_CACHE_ENV, "1") != "0"
        self.max_workers = max_workers
        self.use_disk_cache = use_disk_cache
        self.disk_cache = ResultCache(cache_dir)
        self._energy_model = energy_model
        self.memory_hits = 0
        self.measurement_memory_hits = 0
        #: Trace replays actually executed on behalf of this runner (serially
        #: or in pool workers).  A warm-cache or analytic re-scoring pass
        #: keeps this at zero.
        self.replays = 0
        self._memory: Dict[str, SimulationStats] = {}
        self._measurement_memory: Dict[str, ReplayMeasurement] = {}
        self._scenario_memory: Dict[str, Dict] = {}
        self._performance_model = PerformanceModel(energy_model)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_finalizer = None

    # -- cache plumbing ---------------------------------------------------------------

    @property
    def cache_dir(self) -> str:
        """The on-disk cache directory path."""
        return str(self.disk_cache.directory)

    @property
    def energy_model(self) -> Optional[EnergyModel]:
        """The energy model scoring uses.

        Read-only: the scoring model and the score keys must agree on the
        energy constants, so swapping models mid-life would poison the
        shared cache.  To score under different constants, build a runner
        with ``energy_model=`` on the same cache directory: cached
        measurements are re-scored at zero replay cost.
        """
        return self._energy_model

    def maybe_auto_prune(self) -> int:
        """Apply the ``$REPRO_CACHE_MAX_BYTES`` size cap, if one is configured.

        Called after each completed plan or scenario run, so long-lived
        experiment campaigns keep the cache bounded without anyone having to
        schedule ``python -m repro.runner prune`` manually.  Evicts
        least-recently-modified entries first (all three tiers); returns the
        number of files removed (0 when the variable is unset, unparsable
        or the disk cache is disabled).
        """
        if not self.use_disk_cache:
            return 0
        raw = os.environ.get(CACHE_MAX_BYTES_ENV, "").strip()
        if not raw:
            return 0
        try:
            max_bytes = int(raw)
        except ValueError:
            warnings.warn(
                f"ignoring unparsable {CACHE_MAX_BYTES_ENV}={raw!r}",
                RuntimeWarning,
                stacklevel=2,
            )
            return 0
        if max_bytes < 0:
            return 0
        with telemetry().span("runner.auto_prune", max_bytes=max_bytes) as span:
            removed = self.disk_cache.prune(max_bytes=max_bytes)
            span.set(removed=removed)
        return removed

    def _lookup(self, key: str) -> Optional[SimulationStats]:
        cached = self._memory.get(key)
        if cached is not None:
            self.memory_hits += 1
            return cached
        if self.use_disk_cache:
            tel = telemetry()
            if tel.enabled:
                start = time.perf_counter()
                loaded = self.disk_cache.load(key)
                tel.observe("runner.cache_lookup_seconds", time.perf_counter() - start)
            else:
                loaded = self.disk_cache.load(key)
            if loaded is not None:
                self._memory[key] = loaded
                return loaded
        return None

    def _store(self, key: str, stats: SimulationStats) -> None:
        self._memory[key] = stats
        if self.use_disk_cache:
            self.disk_cache.store(key, stats)

    def _lookup_measurement(self, replay_key: str) -> Optional[ReplayMeasurement]:
        cached = self._measurement_memory.get(replay_key)
        if cached is not None:
            self.measurement_memory_hits += 1
            return cached
        if self.use_disk_cache:
            tel = telemetry()
            if tel.enabled:
                start = time.perf_counter()
                loaded = self.disk_cache.load_measurement(replay_key)
                tel.observe("runner.cache_lookup_seconds", time.perf_counter() - start)
            else:
                loaded = self.disk_cache.load_measurement(replay_key)
            if loaded is not None:
                self._measurement_memory[replay_key] = loaded
                return loaded
        return None

    def _store_measurement(self, replay_key: str, measurement: ReplayMeasurement) -> None:
        self._measurement_memory[replay_key] = measurement
        if self.use_disk_cache:
            self.disk_cache.store_measurement(replay_key, measurement)

    def load_scenario_payload(self, run_key: str) -> Optional[Dict]:
        """The cached scenario-aggregate payload for ``run_key``, if any.

        Scenario aggregates live in their own cache tier keyed by
        :meth:`~repro.scenarios.engine.ScenarioEngine.run_key`; the scenario
        engine owns the payload schema and rebuilds a
        :class:`~repro.scenarios.engine.ScenarioRunResult` from it.
        """
        cached = self._scenario_memory.get(run_key)
        if cached is not None:
            return cached
        if self.use_disk_cache:
            loaded = self.disk_cache.load_scenario(run_key)
            if loaded is not None:
                self._scenario_memory[run_key] = loaded
                return loaded
        return None

    def store_scenario_payload(self, run_key: str, payload: Dict) -> None:
        """Persist a scenario-aggregate payload under ``run_key``."""
        self._scenario_memory[run_key] = payload
        if self.use_disk_cache:
            self.disk_cache.store_scenario(run_key, payload)

    # -- leaf execution ---------------------------------------------------------------

    def _energies(self):
        """The energy-model constants results are scored (and keyed) with."""
        if self.energy_model is not None:
            return self.energy_model.energies
        return DEFAULT_ENERGIES

    def _run_spec(
        self, profile: ApplicationProfile, config: SimulationConfig
    ) -> RunSpec:
        return RunSpec(profile, config, self._energies())

    def measurement_for(
        self, profile: ApplicationProfile, config: SimulationConfig
    ) -> ReplayMeasurement:
        """The replay measurement for one leaf, replaying only on a miss.

        Phase 1 alone: used by callers that score one measurement many
        times in-process (e.g. the co-run contention solver's iterations)
        without touching the stats tier per variant.
        """
        replay_key = self._run_spec(profile, config).replay_key()
        measurement = self._lookup_measurement(replay_key)
        if measurement is None:
            measurement = _traced_replay(profile, config, replay_key)
            self.replays += 1
            self._store_measurement(replay_key, measurement)
        return measurement

    def scorer_for(
        self,
        profile: ApplicationProfile,
        config: SimulationConfig,
        measurement: ReplayMeasurement,
    ) -> "MeasurementScorer":
        """A precomputed scorer over ``measurement`` (this runner's energy model).

        Phase 2 alone, the complement of :meth:`measurement_for`: for
        callers that score one measurement under many score-tier variants
        in-process (the contention solver's per-iteration envelopes) with
        no cache interaction.  The replay-side invariants are hoisted once,
        and the scorer's ``score_config`` / ``score_envelope`` results equal
        what :meth:`run_leaves` stores for the same config, because scoring
        is a pure function of (profile, config, measurement, energies).
        """
        return self._performance_model.scorer(profile, config, measurement)

    def simulate(
        self, profile: ApplicationProfile, config: SimulationConfig
    ) -> SimulationStats:
        """Run one leaf simulation through the two-phase cache.

        A batch of one: :meth:`run_leaves` looks it up, replays it on a
        miss and scores it.
        """
        return self.run_leaves([(profile, config)])[0]

    def run_configs(
        self,
        profile: ApplicationProfile,
        configs: Sequence[SimulationConfig],
    ) -> List[SimulationStats]:
        """Run many configs for one profile, parallelizing replay-tier misses.

        Score-tier misses are grouped by replay key, so configs differing
        only in analytic parameters share one replay; only the measurements
        that are missing from both the in-process layer and the on-disk
        measurement tier are farmed out to worker processes.  Scoring is
        cheap and always happens in-process.  An analytic sweep over an
        already-replayed config is served from the measurement tier at zero
        replay cost; check :attr:`replays` afterwards to assert that.
        """
        return self.run_leaves([(profile, config) for config in configs])

    def run_leaves(
        self,
        leaves: Sequence[Tuple[ApplicationProfile, SimulationConfig]],
    ) -> List[SimulationStats]:
        """Run many (profile, config) leaves in one replay-pooled batch.

        The general form of :meth:`run_configs`: leaves may mix profiles
        (a multi-application scenario timeline), and all replay-tier misses
        across the whole batch share one worker pool — no per-profile
        serialization.  Replay keys embed the profile, so grouping by key
        never conflates applications.
        """
        tel = telemetry()
        if not tel.enabled:
            return self._run_leaves_impl(leaves)
        with tel.span("runner.run_leaves", leaves=len(leaves)) as span:
            results = self._run_leaves_impl(leaves, span)
        return results

    def _run_leaves_impl(
        self,
        leaves: Sequence[Tuple[ApplicationProfile, SimulationConfig]],
        span=None,
    ) -> List[SimulationStats]:
        runs = [self._run_spec(profile, config) for profile, config in leaves]
        score_keys = [run.score_key() for run in runs]
        results: List[Optional[SimulationStats]] = [None] * len(leaves)
        pending: List[int] = []
        for index, key in enumerate(score_keys):
            cached = self._lookup(key)
            if cached is not None:
                results[index] = cached
            else:
                pending.append(index)

        if pending:
            # One replay serves every pending analytic variant of its key.
            by_replay: Dict[str, List[int]] = {}
            for index in pending:
                by_replay.setdefault(runs[index].replay_key(), []).append(index)

            measurements: Dict[str, ReplayMeasurement] = {}
            missing: List[str] = []
            for key in by_replay:
                cached_measurement = self._lookup_measurement(key)
                if cached_measurement is not None:
                    measurements[key] = cached_measurement
                else:
                    missing.append(key)

            if span is not None:
                span.set(pending=len(pending), replay_misses=len(missing))
            jobs = [(*leaves[by_replay[key][0]], key) for key in missing]
            workers = self._effective_workers(len(jobs))
            computed: Optional[List[ReplayMeasurement]] = None
            if workers > 1:
                computed = self._pool_map(_replay_worker, jobs, workers)
            if computed is None:
                computed = [_replay_worker(job) for job in jobs]
            for key, measurement in zip(missing, computed):
                self.replays += 1
                self._store_measurement(key, measurement)
                measurements[key] = measurement

            # Score each replay group through one scorer: same key ⇒ same
            # replay parameters and profile content.
            with telemetry().span(
                "runner.score", groups=len(by_replay), leaves=len(pending)
            ):
                for key, indices in by_replay.items():
                    profile, config = leaves[indices[0]]
                    scorer = self._performance_model.scorer(
                        profile, config, measurements[key]
                    )
                    for index in indices:
                        stats = scorer.score_config(leaves[index][1])
                        self._store(score_keys[index], stats)
                        results[index] = stats
        return [stats for stats in results if stats is not None]

    def best_ipc_index(
        self,
        profile: ApplicationProfile,
        configs: Sequence[SimulationConfig],
    ) -> Optional[int]:
        """Index of the first of ``configs`` with the highest IPC (``None`` if empty).

        The same pick as the first maximum of ``run_configs(profile,
        configs)``, by branch and bound: a scored IPC is the minimum of
        limits that include the compute roof
        (:func:`~repro.sim.vector_model.compute_limit`), which needs no
        replay, so a config whose roof is below the best IPC scored so far
        can neither beat nor tie it and is never run.  Configs are scored in
        descending roof order, in batches of this runner's effective worker
        count (one at a time when serial), until the next roof is below the
        best IPC.
        """
        efficiency = profile.compute_efficiency
        roofs = [
            compute_limit(config.num_compute_sms, config.peak_warp_ipc_per_sm, efficiency)
            for config in configs
        ]
        # Stable: equal roofs keep their original order.
        pending = sorted(range(len(configs)), key=roofs.__getitem__, reverse=True)
        batch_size = self._effective_workers(len(configs))
        ipcs: Dict[int, float] = {}
        best = -float("inf")
        while pending and roofs[pending[0]] >= best:
            batch = [index for index in pending[:batch_size] if roofs[index] >= best]
            pending = pending[batch_size:]
            scored = self.run_configs(profile, [configs[index] for index in batch])
            ipcs.update(zip(batch, (stats.ipc for stats in scored)))
            best = max(ipcs.values())
        return min((index for index, ipc in ipcs.items() if ipc == best), default=None)

    # -- plan execution ---------------------------------------------------------------

    def run_plan(self, spec: ExperimentSpec) -> ExperimentResult:
        """Execute every cell of ``spec`` and return the collected results."""
        start = time.perf_counter()
        cells = spec.cells
        with telemetry().span("runner.run_plan", cells=len(cells)):
            results = self._run_plan_cells(spec, cells)
        self.maybe_auto_prune()
        return ExperimentResult(
            spec=spec,
            results=results,
            elapsed_seconds=time.perf_counter() - start,
        )

    def _run_plan_cells(
        self, spec: ExperimentSpec, cells: Tuple[ExperimentCell, ...]
    ) -> Dict[ExperimentCell, SimulationStats]:
        workers = self._effective_workers(len(cells))
        computed: Optional[List[SimulationStats]] = None
        if workers > 1:
            jobs = [
                (cell, spec, self.cache_dir, self.use_disk_cache, self.energy_model)
                for cell in cells
            ]
            pooled = self._pool_map(_cell_worker, jobs, workers)
            if pooled is not None:
                # Workers count replays and cache hits/misses on their own
                # runners; fold both back so this runner's `replays` and its
                # cache's tier counters stay truthful under pooling.
                computed = [stats for stats, _, _ in pooled]
                self.replays += sum(replays for _, replays, _ in pooled)
                for _, _, counters in pooled:
                    self.disk_cache.absorb_counters(counters)
        if computed is None:
            computed = [self._execute_cell(cell, spec) for cell in cells]
        return dict(zip(cells, computed))

    def _execute_cell(self, cell: ExperimentCell, spec: ExperimentSpec) -> SimulationStats:
        # Imported lazily: repro.systems modules call back into the runner.
        from repro.systems.registry import evaluate_application

        # Systems resolve the process-wide runner internally; scope it to
        # this runner so their leaf runs use this cache and energy model.
        with using_runner(self):
            return evaluate_application(
                cell.system, cell.application, spec.gpu, spec.fidelity, seed=cell.seed
            )

    # -- worker-pool plumbing ---------------------------------------------------------

    def _effective_workers(self, num_jobs: int) -> int:
        if num_jobs <= 1:
            return 1
        workers = self.max_workers
        if workers is None or workers <= 0:
            return 1
        return min(workers, num_jobs, os.cpu_count() or 1)

    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        """The persistent worker pool, created on first use (or ``None``).

        One ``ProcessPoolExecutor`` serves every ``_pool_map`` call for the
        life of the runner, so a plan/scenario run pays worker startup once
        instead of once per batch.  Sized ``min(max_workers, cpu_count)`` —
        an upper bound for every per-batch ``_effective_workers`` value, so
        no call is ever under-provisioned; idle workers cost nothing.
        """
        if self._pool is None:
            size = min(self.max_workers, os.cpu_count() or 1)
            if size < 1:
                return None
            try:
                self._pool = ProcessPoolExecutor(max_workers=size)
            except (OSError, PermissionError, NotImplementedError, ImportError) as error:
                warnings.warn(
                    f"process pool unavailable ({error}); running serially",
                    RuntimeWarning,
                    stacklevel=4,
                )
                return None
            self._pool_finalizer = weakref.finalize(self, _shutdown_pool, self._pool)
        return self._pool

    def _teardown_pool(self) -> None:
        """Shut the persistent pool down (idempotent; a later call recreates it)."""
        pool, self._pool = self._pool, None
        finalizer, self._pool_finalizer = self._pool_finalizer, None
        if finalizer is not None:
            finalizer.detach()
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _pool_map(self, func, jobs, workers: int) -> Optional[List]:
        """Map ``func`` over ``jobs`` in the persistent pool; ``None`` on failure.

        Sandboxes without working multiprocessing primitives fall back to
        serial execution — results are identical either way.  A pool whose
        workers died (``BrokenProcessPool``) is torn down so the next batch
        can start a fresh one.
        """
        pool = self._ensure_pool()
        if pool is None:
            return None
        try:
            with telemetry().span(
                "runner.pool_dispatch", jobs=len(jobs), workers=workers
            ):
                return list(pool.map(func, jobs))
        except (
            BrokenProcessPool,
            OSError,
            PermissionError,
            NotImplementedError,
            ImportError,
        ) as error:
            self._teardown_pool()
            warnings.warn(
                f"process pool unavailable ({error}); running serially",
                RuntimeWarning,
                stacklevel=3,
            )
            return None

    # -- lifecycle --------------------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down.

        Idempotent, and optional — the pool is also reclaimed when the
        runner is garbage-collected (and is created lazily, so a runner
        that never pooled work holds nothing).  The on-disk cache needs no
        closing.
        """
        self._teardown_pool()

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
    """Finalizer body for the persistent pool (module-level: picklable, no self)."""
    pool.shutdown(wait=False, cancel_futures=True)


def _traced_replay(
    profile: ApplicationProfile, config: SimulationConfig, replay_key: str
) -> ReplayMeasurement:
    """One trace replay under a ``runner.replay`` span (no-op when disabled).

    ``replay_key`` is the leaf's :meth:`~repro.runner.spec.RunSpec.replay_key`,
    which the span carries.
    """
    tel = telemetry()
    if not tel.enabled:
        return GPUSimulator(config).replay(profile)
    with tel.span("runner.replay", app=profile.name, replay_key=replay_key):
        return GPUSimulator(config).replay(profile)


def _replay_worker(
    job: Tuple[ApplicationProfile, SimulationConfig, str]
) -> ReplayMeasurement:
    """Worker-process entry point for one trace replay (phase 1 only).

    ``job`` is a leaf and its replay key.  Scoring happens in the parent,
    so the worker needs no energy model and ships back only the compact
    measurement.
    """
    measurement = _traced_replay(*job)
    # Pool workers may be torn down without running exit handlers; flush
    # the span before handing the result back.
    telemetry().flush()
    return measurement


def _cell_worker(
    job: Tuple[ExperimentCell, ExperimentSpec, str, bool, Optional[EnergyModel]]
) -> Tuple[SimulationStats, int, Dict[str, int]]:
    """Worker-process entry point for one plan cell.

    Each worker installs its own serial runner pointed at the shared cache
    directory, so the leaf simulations behind a system evaluation (including
    SM-count searches) land in the same on-disk cache as the parent's.
    Returns the cell's stats plus the worker's trace-replay count and cache
    tier counters, which the parent folds into its own ``replays`` and
    ``disk_cache`` counters.
    """
    cell, spec, cache_dir, use_disk_cache, energy_model = job
    runner = ExperimentRunner(
        cache_dir=cache_dir,
        max_workers=0,
        use_disk_cache=use_disk_cache,
        energy_model=energy_model,
    )
    set_active_runner(runner)
    with telemetry().span("runner.cell", system=cell.system, app=cell.application):
        stats = runner._execute_cell(cell, spec)
    telemetry().flush()
    return stats, runner.replays, runner.disk_cache.tier_counters()


# -- the process-wide runner ---------------------------------------------------------

_ACTIVE_RUNNER: Optional[ExperimentRunner] = None


def active_runner() -> ExperimentRunner:
    """The process-wide runner used by systems, sweeps and the registry."""
    global _ACTIVE_RUNNER
    if _ACTIVE_RUNNER is None:
        _ACTIVE_RUNNER = ExperimentRunner()
    return _ACTIVE_RUNNER


def set_active_runner(runner: Optional[ExperimentRunner]) -> Optional[ExperimentRunner]:
    """Install ``runner`` as the process-wide runner; returns the previous one."""
    global _ACTIVE_RUNNER
    previous = _ACTIVE_RUNNER
    _ACTIVE_RUNNER = runner
    return previous


@contextmanager
def using_runner(runner: ExperimentRunner) -> Iterator[ExperimentRunner]:
    """Context manager scoping the process-wide runner to ``runner``."""
    previous = set_active_runner(runner)
    try:
        yield runner
    finally:
        set_active_runner(previous)
