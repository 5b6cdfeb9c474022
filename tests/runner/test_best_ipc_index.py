"""The branch-and-bound operating-point search against the exhaustive one.

:meth:`ExperimentRunner.best_ipc_index` picks the first of a search's
candidate configs with the highest IPC, but scores a candidate only while
its compute roof (:func:`~repro.sim.vector_model.compute_limit`) can still
reach the best IPC scored so far.  :func:`reference_best_index` below is the
search it replaced: score every candidate, keep the first maximum.  Checked
here:

* a table of every searching system on the six subset applications, seeds
  1-2, on a serial and on a pooled runner: the same pick and the same stats
  as the reference, from a subset of the reference's replays; and every
  candidate's scored ``limits["compute"]`` equal bit for bit to its roof;
* a ``hypothesis`` property over a stub scorer, with many exact ties and
  batch sizes 1-4: the reference's index, candidates scored in descending
  roof order, and none skipped unless its roof is below the best IPC;
* on a GPU with fewer SMs than the smallest candidate, every system searches
  nothing and computes on all of its SMs, none gated;
* Figure 2's :func:`~repro.analysis.sweep.best_configuration` against the
  first maximum of the full :func:`~repro.analysis.sweep.sm_count_sweep`.
"""

from __future__ import annotations

import dataclasses
import os
from types import SimpleNamespace
from typing import List, Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sweep import FIGURE1_SM_COUNTS, best_configuration, sm_count_sweep
from repro.energy.components import DEFAULT_ENERGIES
from repro.gpu.config import RTX3080_CONFIG
from repro.runner import ExperimentRunner, RunSpec, using_runner
from repro.sim.vector_model import compute_limit
from repro.systems.registry import EVALUATED_SYSTEMS, get_system
from repro.workloads.applications import get_application
from fidelity_utils import TINY_FIDELITY

#: Every system name that searches an operating point: the IBL family, the
#: four Morpheus variants, and a Morpheus variant under another predictor.
SEARCHING_SYSTEMS = (
    "IBL",
    "IBL-4X-LLC",
    "Frequency-Boost",
    "Unified-SM-Mem",
    "Morpheus-Basic",
    "Morpheus-Compression",
    "Morpheus-Indirect-MOV",
    "Morpheus-ALL",
    "Morpheus-Basic(none)",
)
SUBSET_APPS = ("p-bfs", "cfd", "sgem", "kmeans", "spmv", "page-r")


def reference_best_index(runner, profile, configs: Sequence) -> Optional[int]:
    """The exhaustive search: score every candidate, keep the first maximum."""
    if not configs:
        return None
    best_index, best_ipc = 0, -1.0
    for index, stats in enumerate(runner.run_configs(profile, configs)):
        if stats.ipc > best_ipc:
            best_index, best_ipc = index, stats.ipc
    return best_index


class ReferenceRunner(ExperimentRunner):
    """Searches exhaustively, and records every leaf it is asked to run."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.leaves: List = []

    def run_leaves(self, leaves):
        self.leaves.extend(leaves)
        return super().run_leaves(leaves)

    def best_ipc_index(self, profile, configs):
        return reference_best_index(self, profile, configs)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """``(system, app, seed) ->`` the exhaustive search's result, memoized.

    The result is the reference's pick index, its evaluated stats, the
    replay keys of every leaf the evaluation ran, and every candidate's
    config with its stats.
    """
    runner = ReferenceRunner(cache_dir=tmp_path_factory.mktemp("reference"), max_workers=0)
    results = {}

    def evaluate(system_name: str, app: str, seed: int):
        key = (system_name, app, seed)
        if key not in results:
            profile = get_application(app)
            system = get_system(system_name, fidelity=TINY_FIDELITY, seed=seed)
            runner.leaves = []
            with using_runner(runner):
                stats = system.evaluate(profile)
            replay_keys = {
                RunSpec(leaf_profile, config, DEFAULT_ENERGIES).replay_key()
                for leaf_profile, config in runner.leaves
            }
            configs = system.search_configs(profile)
            index = reference_best_index(runner, profile, configs)
            candidates = list(zip(configs, runner.run_configs(profile, configs)))
            results[key] = (index, stats, replay_keys, candidates)
        return results[key]

    yield evaluate
    runner.close()


@pytest.mark.parametrize("workers", (0, 2), ids=("serial", "pooled"))
@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("app", SUBSET_APPS)
@pytest.mark.parametrize("system_name", SEARCHING_SYSTEMS)
def test_search_matches_the_exhaustive_reference(
    tmp_path, monkeypatch, reference, system_name, app, seed, workers
):
    # On a 1-CPU host the runner would degrade 2 workers to serial.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    index, expected, reference_keys, candidates = reference(system_name, app, seed)
    profile = get_application(app)
    system = get_system(system_name, fidelity=TINY_FIDELITY, seed=seed)
    with ExperimentRunner(cache_dir=tmp_path, max_workers=workers) as runner:
        if workers and runner._ensure_pool() is None:
            pytest.skip("multiprocessing unavailable in this sandbox")
        with using_runner(runner):
            stats = system.evaluate(profile)
        replays = runner.replays
        configs = system.search_configs(profile)
        assert runner.best_ipc_index(profile, configs) == index
        assert runner.replays == replays  # the search is warm now
    assert stats == expected
    replayed = {path.stem for path in (tmp_path / "measurements").rglob("*.json")}
    assert replayed <= reference_keys
    assert replays == len(replayed)
    assert [config for config, _ in candidates] == configs
    efficiency = profile.compute_efficiency
    for config, scored in candidates:
        roof = compute_limit(config.num_compute_sms, config.peak_warp_ipc_per_sm, efficiency)
        assert roof.hex() == scored.limits["compute"].hex()
        assert scored.ipc <= roof


# -- the pruning rule over a stub scorer --------------------------------------------------


class StubScorer:
    """Stands in for a runner: IPCs from a table, batches of a fixed size."""

    def __init__(self, ipcs: Sequence[float], batch_size: int) -> None:
        self.ipcs = ipcs
        self.batch_size = batch_size
        self.batches: List[List[int]] = []

    def _effective_workers(self, num_jobs: int) -> int:
        return self.batch_size

    def run_configs(self, profile, configs):
        self.batches.append([config.index for config in configs])
        return [SimpleNamespace(ipc=self.ipcs[config.index]) for config in configs]


@st.composite
def stub_searches(draw):
    """(profile, candidate configs, their IPCs, batch size), with many ties.

    Roofs repeat across candidates, and each IPC is the smaller of its roof
    and a value from a short list, so IPCs tie each other and their roofs.
    """
    profile = SimpleNamespace(compute_efficiency=draw(st.sampled_from((0.5, 0.75, 1.0))))
    configs, ipcs = [], []
    for index in range(draw(st.integers(0, 8))):
        config = SimpleNamespace(
            index=index,
            num_compute_sms=draw(st.integers(1, 6)),
            peak_warp_ipc_per_sm=draw(st.sampled_from((1.0, 2.0, 3.0))),
        )
        roof = compute_limit(
            config.num_compute_sms, config.peak_warp_ipc_per_sm, profile.compute_efficiency
        )
        configs.append(config)
        ipcs.append(min(roof, draw(st.sampled_from((0.5, 1.0, 2.0, 3.0, 4.5, 6.0, 9.0)))))
    return profile, configs, ipcs, draw(st.integers(1, 4))


@settings(max_examples=400, deadline=None)
@given(stub_searches())
def test_pruning_keeps_the_first_maximum_and_skips_only_losers(search):
    profile, configs, ipcs, batch_size = search
    stub = StubScorer(ipcs, batch_size)
    picked = ExperimentRunner.best_ipc_index(stub, profile, configs)
    assert picked == reference_best_index(StubScorer(ipcs, 1), profile, configs)

    roofs = [
        compute_limit(c.num_compute_sms, c.peak_warp_ipc_per_sm, profile.compute_efficiency)
        for c in configs
    ]
    scored = [index for batch in stub.batches for index in batch]
    assert all(0 < len(batch) <= batch_size for batch in stub.batches)
    assert len(scored) == len(set(scored))
    assert [roofs[i] for i in scored] == sorted((roofs[i] for i in scored), reverse=True)
    best = max(ipcs, default=None)
    for index in set(range(len(configs))) - set(scored):
        assert roofs[index] < best


# -- a GPU smaller than every candidate ---------------------------------------------------


@pytest.mark.parametrize("system_name", EVALUATED_SYSTEMS)
def test_a_gpu_below_every_candidate_computes_on_all_its_sms(tmp_path, system_name):
    gpu = dataclasses.replace(RTX3080_CONFIG, num_sms=8)
    profile = get_application("kmeans")
    system = get_system(system_name, gpu, TINY_FIDELITY)
    with ExperimentRunner(cache_dir=tmp_path, max_workers=0) as runner:
        with using_runner(runner):
            stats = system.evaluate(profile)
    assert (stats.num_compute_sms, stats.num_cache_sms, stats.num_gated_sms) == (8, 0, 0)
    assert runner.replays == 1
    assert system.search_configs(profile) == []


# -- Figure 2's best configuration ---------------------------------------------------------


def reference_best_configuration(app: str, gpu, runner):
    """The exhaustive Figure-2 search: the first maximum of the full SM-count sweep."""
    sweep = sm_count_sweep(app, FIGURE1_SM_COUNTS, gpu, TINY_FIDELITY, runner=runner)
    best_count = max(sweep, key=lambda count: sweep[count].ipc)
    return best_count, sweep[best_count]


@pytest.mark.parametrize("factor", (1.0, 4.0))
@pytest.mark.parametrize("app", SUBSET_APPS)
def test_best_configuration_matches_the_exhaustive_sweep(tmp_path, app, factor):
    gpu = RTX3080_CONFIG if factor == 1.0 else RTX3080_CONFIG.with_llc_scale(factor)
    with ExperimentRunner(cache_dir=tmp_path / "pruned", max_workers=0) as runner:
        picked = best_configuration(app, gpu, fidelity=TINY_FIDELITY, runner=runner)
    with ExperimentRunner(cache_dir=tmp_path / "exhaustive", max_workers=0) as reference:
        expected = reference_best_configuration(app, gpu, reference)
    assert picked == expected
    assert runner.replays <= reference.replays
