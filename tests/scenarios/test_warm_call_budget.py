"""Per-phase call budget of a warm fleet re-run.

Counts the Python function calls a warm re-run of a 2,000-phase fleet
timeline makes per phase under ``sys.setprofile``: the engine loading the
stored aggregate (its run key hashes the whole timeline) plus the streaming
fold of the result.  The count is deterministic and free of host noise, so
a change that puts calls back into the per-phase work of the warm path
shows up here before it shows up in a timed benchmark.  The timeline is
the fleet shape at seed 2 on Morpheus-Basic at the tiny test fidelity, and
every run hashes a fresh copy of the spec, as a new process would.
"""

from __future__ import annotations

import dataclasses
import sys

from repro.analysis.scenarios import ScenarioAccumulator
from repro.runner import ExperimentRunner
from repro.scenarios import ScenarioEngine, fleet
from fidelity_utils import TINY_FIDELITY

PHASES = 2_000
SYSTEM = "Morpheus-Basic"

#: Python calls per phase allowed: the warm path's own count plus under
#: 10%.  It makes 5.82 calls per phase: 3.61 to render the timeline for its
#: key, 1 to fold each phase, and the rest, per distinct phase, to rebuild
#: the stored aggregate and work out what each phase adds.
BUDGET = 6.4


def test_warm_fleet_rerun_stays_within_call_budget(tmp_path):
    scenario = fleet(num_phases=PHASES, seed=2)
    runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
    engine = ScenarioEngine(runner=runner, fidelity=TINY_FIDELITY, seed=2)
    cold = ScenarioAccumulator.from_result(
        engine.run(dataclasses.replace(scenario), SYSTEM)
    ).aggregates()
    replays = runner.replays
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = engine.run(dataclasses.replace(scenario), SYSTEM)
        warm = ScenarioAccumulator.from_result(result).aggregates()
    finally:
        sys.setprofile(previous)
    assert runner.replays == replays, "the warm re-run replayed leaves"
    assert warm == cold
    per_phase = calls / PHASES
    assert per_phase <= BUDGET, (
        f"a warm fleet re-run makes {per_phase:.2f} Python calls per phase, "
        f"over its budget of {BUDGET}"
    )
