"""Per-phase call budgets of a cold fleet aggregate over cached leaves.

Counts the Python function calls per phase that ``ScenarioEngine.run``
makes, under ``sys.setprofile``, when every leaf is cached but the
timeline's aggregate is not: planning each phase, lowering it to leaves,
loading the distinct leaves, solving contention and storing the aggregate.
A second set of budgets counts the same for
``ScenarioEngine.solo_reference_ipcs``, which plans and lowers each
application's solo timeline through the same ``ScenarioEngine.lower``.
The counts are deterministic and free of host noise.  Every system plans
through ``CapacityPolicy.plan``, so planning and lowering run once per
distinct decision on BL and IBL as on Morpheus-Basic, and a change that
puts per-phase work back into either shows up here before it shows up in a
timed benchmark.

The timeline is the 5,000-phase fleet shape at seed 2 at the tiny test
fidelity, on Morpheus-Basic under both policies and on BL and IBL under
their baseline policies.  A first call warms the cache; the counted call
uses a fresh runner on that cache with the scenario-tier entries removed,
and the spec's scenario key is computed before counting starts (the warm
call budget covers rendering it).
"""

from __future__ import annotations

import dataclasses
import shutil
import sys

import pytest

from repro.runner import ExperimentRunner
from repro.runner.cache import ResultCache
from repro.scenarios import DynamicCapacityManager, FixedSplitPolicy, ScenarioEngine, fleet
from fidelity_utils import TINY_FIDELITY

PHASES = 5_000

#: (system, policy, Python calls per phase allowed) of each cold run.  Each
#: budget is the run's own count plus under 10%: 21.89 calls per phase
#: under the dynamic manager, 24.80 under the fixed split and 18.90 on BL
#: and on IBL.  Before planning checked each distinct state once, the
#: engine re-checked every phase: 25.74 and 28.57 calls, and 50.34 and
#: 53.94 on BL and IBL, which built a fresh decision per phase (77.35 and
#: 74.37 on Morpheus-Basic when every phase was planned and lowered on its
#: own).  Most of what is left per phase hashes and compares the residents
#: for the two memo lookups.
BUDGETS = {
    "dynamic": ("Morpheus-Basic", DynamicCapacityManager(), 24.0),
    "static": ("Morpheus-Basic", FixedSplitPolicy(), 27.0),
    "BL": ("BL", None, 20.7),
    "IBL": ("IBL", None, 20.7),
}

#: Python calls per phase allowed for cold solo references under each
#: system's default policy: the call's own count plus under 10%.  It makes
#: 13.55 on Morpheus-Basic and 13.21 on BL and on IBL (18.41, 56.51 and
#: 61.33 with the per-phase checks and baseline decisions; 67.62 on
#: Morpheus-Basic when every solo phase was lowered on its own).  Most of
#: it builds each solo phase and hashes and compares its residents for the
#: two memo lookups.
SOLO_BUDGETS = {"Morpheus-Basic": 14.8, "BL": 14.5, "IBL": 14.5}


def count_cold_call(tmp_path, call):
    """``(warming result, counted result, calls per phase)`` of ``call``.

    ``call(engine, spec)`` runs once to warm the cache, then once more,
    counted, on a fresh runner over that cache with the scenario tier
    removed and the spec's scenario key memoized.  The counted call must
    replay nothing and store one scenario-tier payload.
    """
    scenario = fleet(num_phases=PHASES, seed=2)
    cache_dir = tmp_path / "cache"
    runner = ExperimentRunner(cache_dir=cache_dir, max_workers=0)
    engine = ScenarioEngine(runner=runner, fidelity=TINY_FIDELITY, seed=2)
    warm = call(engine, dataclasses.replace(scenario))
    shutil.rmtree(cache_dir / ResultCache.SCENARIOS_TIER)

    runner = ExperimentRunner(cache_dir=cache_dir, max_workers=0)
    engine = ScenarioEngine(runner=runner, fidelity=TINY_FIDELITY, seed=2)
    spec = dataclasses.replace(scenario)
    spec.scenario_key()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = call(engine, spec)
    finally:
        sys.setprofile(previous)
    assert runner.replays == 0, "the counted call replayed leaves"
    assert runner.disk_cache.scenario_stores == 1, "the result was not recomputed"
    return warm, result, calls / PHASES


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_cold_fleet_aggregate_stays_within_call_budget(tmp_path, name):
    system, policy, budget = BUDGETS[name]
    warm, result, per_phase = count_cold_call(
        tmp_path, lambda engine, spec: engine.run(spec, system, policy)
    )
    assert result.signatures == warm.signatures
    assert list(result.phases.phase_ids) == list(warm.phases.phase_ids)
    assert per_phase <= budget, (
        f"a cold fleet aggregate under the {name} policy makes {per_phase:.2f} "
        f"Python calls per phase, over its budget of {budget}"
    )


@pytest.mark.parametrize("system", sorted(SOLO_BUDGETS))
def test_cold_solo_references_stay_within_call_budget(tmp_path, system):
    warm, references, per_phase = count_cold_call(
        tmp_path, lambda engine, spec: engine.solo_reference_ipcs(spec, system)
    )
    assert references == warm
    budget = SOLO_BUDGETS[system]
    assert per_phase <= budget, (
        f"cold solo references on {system} make {per_phase:.2f} Python calls "
        f"per phase, over their budget of {budget}"
    )
