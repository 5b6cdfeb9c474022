"""Golden scenario aggregates: fixed-seed timeline snapshots per library shape.

Each case runs one library shape on Morpheus-Basic at the tiny test
fidelity through a fresh cache and compares the aggregate payload the
engine persists in the cache's scenario tier with a JSON fixture committed
under ``tests/fixtures/golden_scenarios/``.  The payload carries every
distinct phase signature's per-resident stats, envelopes, instruction
shares and cycle counts, the interned transitions and each phase's ids, so
one comparison pins policy planning, lowering, leaf scoring, the contention
fixed point and the persisted layout together.

A mismatch means scenario behaviour changed.  As with the golden stats
(``tests/test_golden_stats.py``), make the change deliberate — bump the
matching schema version — and regenerate the fixtures with::

    PYTHONPATH=src REPRO_REGEN_GOLDEN=1 python -m pytest tests/scenarios/test_golden_scenarios.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.runner import ExperimentRunner
from repro.scenarios import SCENARIO_LIBRARY, ScenarioEngine, get_scenario
from scenario_test_utils import TINY_FIDELITY
from test_golden_stats import REGEN_ENV, _diff

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "fixtures" / "golden_scenarios"

SYSTEM = "Morpheus-Basic"

#: Library shapes under test ("diurnal" is an alias of "ramp"); the fleet
#: shape is shrunk so the fixtures stay small.
SHAPES = sorted(name for name in SCENARIO_LIBRARY if name != "diurnal")
SHAPE_KWARGS = {"fleet": {"num_phases": 60, "seed": 2}}


def build(name):
    return get_scenario(name, **SHAPE_KWARGS.get(name, {}))


def _persisted_payload(tmp_path, name):
    """The aggregate payload one cold run of shape ``name`` writes to disk."""
    runner = ExperimentRunner(
        cache_dir=tmp_path / "cache", max_workers=0, use_disk_cache=True
    )
    engine = ScenarioEngine(runner=runner, fidelity=TINY_FIDELITY)
    result = engine.run(build(name), SYSTEM)
    payload = runner.disk_cache.load_scenario(result.run_key)
    assert payload is not None, f"{name}: no aggregate persisted"
    return payload


@pytest.mark.parametrize("name", SHAPES)
def test_golden_scenario(tmp_path, name):
    path = GOLDEN_DIR / f"{name}.json"
    actual = _persisted_payload(tmp_path, name)
    if os.environ.get(REGEN_ENV):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"missing golden fixture {path}; generate it with {REGEN_ENV}=1"
    )
    mismatches = _diff(json.loads(path.read_text()), actual)
    assert not mismatches, (
        f"golden scenario aggregate changed for {name!r} at {path}:\n  "
        + "\n  ".join(mismatches)
    )


def test_fixtures_cover_every_shape():
    committed = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert committed == set(SHAPES), (
        f"golden scenario fixtures out of sync with the library: missing "
        f"{sorted(set(SHAPES) - committed)}, stale {sorted(committed - set(SHAPES))}"
    )
