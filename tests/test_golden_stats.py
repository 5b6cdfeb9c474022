"""Golden-stats regression tests: fixed-seed end-to-end snapshots per system.

Each case runs one tiny fixed-seed leaf simulation end to end (trace
generation, hierarchy replay, analytic scoring, energy model) and compares
the full :class:`~repro.sim.stats.SimulationStats` against a JSON fixture
committed under ``tests/fixtures/golden_stats/``.

A mismatch means simulation behaviour changed.  That is allowed — this repo
evolves its models — but it must be **deliberate**: bump the matching schema
version in ``src/repro/runner/spec.py`` (see the "Contract" section of
ROADMAP.md — replay-behaviour changes bump ``REPLAY_SCHEMA_VERSION``,
scoring-only changes bump ``SCORE_SCHEMA_VERSION``) and regenerate the
fixtures with::

    PYTHONPATH=src REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden_stats.py
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.core.config import MorpheusConfig
from repro.energy.model import EnergyModel
from repro.runner import ExperimentRunner
from repro.sim.simulator import SimulationConfig
from repro.workloads.applications import get_application

GOLDEN_DIR = Path(__file__).parent / "fixtures" / "golden_stats"
REGEN_ENV = "REPRO_REGEN_GOLDEN"

#: Relative tolerance for float comparison: tight enough to catch any real
#: model change, loose enough to ignore cross-platform libm noise.
REL_TOL = 1e-9

_TINY = dict(
    capacity_scale=1.0 / 64.0,
    trace_accesses=800,
    warmup_accesses=200,
    seed=7,
)

_MORPHEUS_ALL = MorpheusConfig(enable_compression=True, enable_indirect_mov_isa=True)

_MORPHEUS_SPLIT = dict(
    num_compute_sms=34,
    num_cache_sms=24,
    power_gate_unused=True,
    **_TINY,
)

#: One tiny end-to-end case per system flavour, as ``(application, config)``:
#: the plain baseline, the power-gated improved baseline and Morpheus with
#: cache-mode SMs.  The Morpheus cases cover both variants' store paths,
#: every hit/miss predictor branch of the controller, and a store- and
#: atomic-heavy application (histo) next to the load-dominated kmeans.
GOLDEN_CASES = {
    "BL": ("kmeans", SimulationConfig(
        num_compute_sms=68,
        power_gate_unused=False,
        system_name="BL",
        **_TINY,
    )),
    "IBL": ("kmeans", SimulationConfig(
        num_compute_sms=34,
        power_gate_unused=True,
        system_name="IBL",
        **_TINY,
    )),
    "Morpheus-ALL": ("kmeans", SimulationConfig(
        morpheus=_MORPHEUS_ALL, system_name="Morpheus-ALL", **_MORPHEUS_SPLIT
    )),
    "Morpheus-Basic": ("kmeans", SimulationConfig(
        morpheus=MorpheusConfig(), system_name="Morpheus-Basic", **_MORPHEUS_SPLIT
    )),
    "Morpheus-ALL-predictor-none": ("kmeans", SimulationConfig(
        morpheus=dataclasses.replace(_MORPHEUS_ALL, predictor="none"),
        system_name="Morpheus-ALL(none)",
        **_MORPHEUS_SPLIT,
    )),
    "Morpheus-ALL-predictor-perfect": ("kmeans", SimulationConfig(
        morpheus=dataclasses.replace(_MORPHEUS_ALL, predictor="perfect"),
        system_name="Morpheus-ALL(perfect)",
        **_MORPHEUS_SPLIT,
    )),
    "Morpheus-ALL-histo": ("histo", SimulationConfig(
        morpheus=_MORPHEUS_ALL, system_name="Morpheus-ALL", **_MORPHEUS_SPLIT
    )),
}

SCHEMA_HINT = (
    "Golden stats changed for {system!r} at {path}: simulation behaviour "
    "differs from the committed fixture. If the change is intentional, bump "
    "the matching schema version in src/repro/runner/spec.py per the "
    "contract in ROADMAP.md (replay-behaviour changes bump "
    "REPLAY_SCHEMA_VERSION, scoring-only changes bump SCORE_SCHEMA_VERSION) "
    "and regenerate with REPRO_REGEN_GOLDEN=1."
)


def _simulate(system: str):
    runner = ExperimentRunner(
        max_workers=0, use_disk_cache=False, energy_model=EnergyModel()
    )
    application, config = GOLDEN_CASES[system]
    stats = runner.simulate(get_application(application), config)
    # JSON round-trip, so fixture comparison sees exactly what json stores
    # (e.g. dict keys stringified, tuples as lists).
    return json.loads(json.dumps(dataclasses.asdict(stats), sort_keys=True))


def _fixture_path(system: str) -> Path:
    return GOLDEN_DIR / f"{system}.json"


def _diff(expected, actual, path=""):
    """Recursive diff with a float tolerance; returns mismatch descriptions."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        mismatches = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                mismatches.append(f"{path}.{key}: unexpected new field {actual[key]!r}")
            elif key not in actual:
                mismatches.append(f"{path}.{key}: missing (was {expected[key]!r})")
            else:
                mismatches.extend(_diff(expected[key], actual[key], f"{path}.{key}"))
        return mismatches
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: {len(expected)} items -> {len(actual)}"]
        mismatches = []
        for index, (want, got) in enumerate(zip(expected, actual)):
            mismatches.extend(_diff(want, got, f"{path}[{index}]"))
        return mismatches
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)) \
            and not isinstance(expected, bool) and not isinstance(actual, bool):
        if actual != pytest.approx(expected, rel=REL_TOL, abs=1e-12):
            return [f"{path}: {expected!r} -> {actual!r}"]
        return []
    if expected != actual:
        return [f"{path}: {expected!r} -> {actual!r}"]
    return []


@pytest.mark.parametrize("system", sorted(GOLDEN_CASES))
def test_golden_stats(system):
    path = _fixture_path(system)
    actual = _simulate(system)
    if os.environ.get(REGEN_ENV):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"missing golden fixture {path}; generate it with {REGEN_ENV}=1"
    )
    expected = json.loads(path.read_text())
    mismatches = _diff(expected, actual)
    assert not mismatches, (
        SCHEMA_HINT.format(system=system, path=path)
        + "\nMismatched fields:\n  "
        + "\n  ".join(mismatches)
    )


def test_fixtures_cover_every_case():
    committed = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert committed == set(GOLDEN_CASES), (
        f"golden fixtures out of sync with GOLDEN_CASES: missing "
        f"{sorted(set(GOLDEN_CASES) - committed)}, "
        f"stale {sorted(committed - set(GOLDEN_CASES))}"
    )
