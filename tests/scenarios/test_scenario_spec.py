"""Tests for scenario specs, keys and the named-scenario library."""

from __future__ import annotations

import pytest

import repro.runner.spec as runner_spec
import repro.scenarios.spec as scenario_spec
from repro.scenarios import (
    SCENARIO_LIBRARY,
    Residency,
    ScenarioPhase,
    ScenarioSpec,
    bursty,
    corun_pair,
    get_scenario,
    ramp,
    steady,
)


def _phase(**overrides) -> ScenarioPhase:
    base = dict(application="kmeans", compute_sm_demand=24)
    base.update(overrides)
    return ScenarioPhase(**base)


class TestScenarioSpec:
    def test_phase_validation(self):
        with pytest.raises(ValueError):
            _phase(application="")
        with pytest.raises(ValueError):
            _phase(compute_sm_demand=0)
        with pytest.raises(ValueError):
            _phase(duration_weight=0.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="", phases=(_phase(),))
        with pytest.raises(ValueError):
            ScenarioSpec(name="empty", phases=())
        with pytest.raises(ValueError):
            ScenarioSpec(name="bad", phases=(_phase(),), instructions_per_weight=0)

    # Each of these was accepted and failed later: a float demand raised a
    # TypeError inside every system's run, a bool one ran with
    # ``num_compute_sms=True``, and a non-finite weight ran to a NaN
    # time-weighted IPC that was then persisted.
    def test_float_demand_rejected(self):
        with pytest.raises(ValueError, match="must be an int"):
            Residency("kmeans", 8.0)
        with pytest.raises(ValueError, match="must be an int"):
            _phase(compute_sm_demand=8.0)

    def test_bool_demand_rejected(self):
        with pytest.raises(ValueError, match="must be an int"):
            Residency("kmeans", True)
        with pytest.raises(ValueError, match="must be an int"):
            _phase(compute_sm_demand=True)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_duration_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="duration_weight"):
            _phase(duration_weight=weight)
        with pytest.raises(ValueError, match="duration_weight"):
            ScenarioPhase(residents=(Residency("kmeans", 8),), duration_weight=weight)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_instructions_per_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="instructions_per_weight"):
            ScenarioSpec(name="bad", phases=(_phase(),), instructions_per_weight=weight)

    def test_derived_properties(self):
        spec = ScenarioSpec(
            name="mix",
            phases=(
                _phase(application="kmeans", compute_sm_demand=24, duration_weight=2.0),
                _phase(application="cfd", compute_sm_demand=60),
                _phase(application="kmeans", compute_sm_demand=34),
            ),
        )
        assert len(spec) == 3
        assert spec.total_weight == pytest.approx(4.0)
        assert spec.applications == ("kmeans", "cfd")
        assert spec.max_compute_sm_demand == 60

    def test_phases_normalized_to_tuple(self):
        spec = ScenarioSpec(name="list", phases=[_phase()])
        assert isinstance(spec.phases, tuple)


class TestScenarioKey:
    def test_key_is_stable_and_phase_sensitive(self):
        a = ScenarioSpec(name="a", phases=(_phase(),))
        same = ScenarioSpec(name="a", phases=(_phase(),))
        different = ScenarioSpec(name="a", phases=(_phase(compute_sm_demand=34),))
        assert a.scenario_key() == same.scenario_key()
        assert a.scenario_key() != different.scenario_key()

    def test_key_layers_on_leaf_schema_versions(self, monkeypatch):
        # A replay- or score-behaviour bump must invalidate scenario-level
        # aggregates too: the scenario key embeds all three versions.
        spec = ScenarioSpec(name="a", phases=(_phase(),))
        baseline = spec.scenario_key()
        monkeypatch.setattr(scenario_spec, "SCENARIO_SCHEMA_VERSION", 999)
        bumped_scenario = spec.scenario_key()
        monkeypatch.setattr(scenario_spec, "SCENARIO_SCHEMA_VERSION", 1)
        monkeypatch.setattr(scenario_spec, "REPLAY_SCHEMA_VERSION", 999)
        bumped_replay = spec.scenario_key()
        monkeypatch.setattr(scenario_spec, "REPLAY_SCHEMA_VERSION", runner_spec.REPLAY_SCHEMA_VERSION)
        monkeypatch.setattr(scenario_spec, "SCORE_SCHEMA_VERSION", 999)
        bumped_score = spec.scenario_key()
        assert len({baseline, bumped_scenario, bumped_replay, bumped_score}) == 4


class TestLibrary:
    def test_steady_repeats_one_phase(self):
        spec = steady(application="spmv", compute_sms=34, num_phases=5)
        assert len(spec) == 5
        assert {phase.compute_sm_demand for phase in spec.phases} == {34}
        assert spec.applications == ("spmv",)

    def test_bursty_alternates_and_ends_low(self):
        spec = bursty(low_sms=20, high_sms=60, bursts=3)
        assert len(spec) == 7
        demands = [phase.compute_sm_demand for phase in spec.phases]
        assert demands == [20, 60, 20, 60, 20, 60, 20]
        with pytest.raises(ValueError):
            bursty(low_sms=60, high_sms=20)

    def test_corun_pair_alternates_applications(self):
        spec = corun_pair(application_a="kmeans", application_b="cfd", rounds=2)
        apps = [phase.application for phase in spec.phases]
        assert apps == ["kmeans", "cfd", "kmeans", "cfd"]

    def test_ramp_is_symmetric(self):
        spec = ramp(low_sms=10, high_sms=60, steps=4)
        demands = [phase.compute_sm_demand for phase in spec.phases]
        assert len(demands) == 7
        assert demands == demands[::-1]
        assert demands[0] == 10 and max(demands) == 60

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            pytest.param(name, {}, id=name)
            for name in sorted(SCENARIO_LIBRARY)
            if name != "fleet"
        ]
        + [
            pytest.param("fleet", {"seed": seed}, id=f"fleet-seed{seed}")
            for seed in (1, 2, 3)
        ]
        + [
            pytest.param(
                "fleet",
                {"seed": 1, "applications": ("kmeans", "cfd", "spmv")},
                id="fleet-reordered",
            )
        ],
    )
    def test_applications_are_distinct_in_first_seen_order(self, name, kwargs):
        spec = get_scenario(name, **kwargs)
        seen = []
        for phase in spec.phases:
            for application in phase.applications:
                if application not in seen:
                    seen.append(application)
        assert spec.applications == tuple(seen)

    def test_get_scenario_lookup(self):
        assert get_scenario("bursty", bursts=1).name == "bursty"
        assert set(SCENARIO_LIBRARY) >= {"steady", "bursty", "corun_pair", "ramp", "diurnal"}
        with pytest.raises(KeyError):
            get_scenario("nonexistent")
