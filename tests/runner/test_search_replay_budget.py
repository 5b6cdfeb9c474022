"""Replays per cold Figure-12 row: the noise-free cost of the operating-point searches.

One row is BL, IBL and Morpheus-ALL on one application, run as a plan on a
serial runner with an empty cache, at the tiny test fidelity and seed 1.
The replay count is deterministic, so it pins how many candidates the two
searches replay: a change that scores candidates no search needs shows up
here before it shows up in a timed benchmark.  When each search replayed
all eight candidates, every row took 18 replays: BL's leaf, IBL's eight
candidates and its pick, Morpheus-ALL's candidates but the all-compute split
(IBL's 68-SM leaf) and its pick.  A search now skips the candidates whose
compute roof is below the best IPC it has scored.

Same rule as the call budgets: tighten a budget when a change lowers a
count; never raise one to land a change.
"""

from __future__ import annotations

import pytest

from repro.runner import ExperimentRunner, ExperimentSpec
from fidelity_utils import TINY_FIDELITY

#: Replays allowed per cold row, each the row's own count (18 for every row
#: with exhaustive searches).
BUDGETS = {"p-bfs": 16, "cfd": 12, "sgem": 6, "kmeans": 16, "spmv": 12, "page-r": 12}


@pytest.mark.parametrize("app", sorted(BUDGETS))
def test_cold_fig12_row_replays_within_budget(tmp_path, app):
    spec = ExperimentSpec(
        systems=("BL", "IBL", "Morpheus-ALL"),
        applications=(app,),
        fidelity=TINY_FIDELITY,
        seeds=(1,),
    )
    with ExperimentRunner(cache_dir=tmp_path, max_workers=0) as runner:
        runner.run_plan(spec)
    assert runner.replays <= BUDGETS[app]
