"""Tests for capacity policies, transition costs and the scenario engine."""

from __future__ import annotations

from typing import List

import pytest

from repro.core.config import MorpheusConfig
from repro.gpu.config import RTX3080_CONFIG
from repro.runner import ExperimentRunner, using_runner
from repro.scenarios import (
    CapacityPolicy,
    DynamicCapacityManager,
    FixedSplitPolicy,
    PhaseDecision,
    Residency,
    ScenarioEngine,
    ScenarioPhase,
    ScenarioSpec,
    TransitionCostModel,
    bursty,
    corun_pair,
    get_scenario,
    grant_transition,
    max_cache_mode_sms,
    steady,
)
from repro.systems.fidelity import FAST_FIDELITY
from repro.systems.registry import SCENARIO_SYSTEMS
from repro.workloads.applications import get_application
from scenario_test_utils import TINY_FIDELITY

GPU = RTX3080_CONFIG
MORPHEUS = MorpheusConfig()
MODEL = TransitionCostModel()


def _profiles(scenario: ScenarioSpec):
    return {name: get_application(name) for name in scenario.applications}


def _plan(policy: CapacityPolicy, scenario: ScenarioSpec) -> List[PhaseDecision]:
    return policy.plan(scenario, GPU, MORPHEUS, _profiles(scenario), MODEL)


@pytest.fixture
def engine(tmp_path):
    runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
    return ScenarioEngine(runner=runner, fidelity=TINY_FIDELITY)


class TestTransitionCostModel:
    def test_no_cost_for_zero_sms(self):
        profile = get_application("kmeans")
        assert MODEL.flush_cost(GPU, 0, profile).is_zero
        assert MODEL.warmup_cost(GPU, 0).is_zero

    def test_flush_scales_with_reclaimed_sms(self):
        profile = get_application("kmeans")
        small = MODEL.flush_cost(GPU, 4, profile)
        large = MODEL.flush_cost(GPU, 40, profile)
        assert 0 < small.flushed_dirty_bytes < large.flushed_dirty_bytes
        assert 0 < small.flush_cycles
        # Beyond the point where the SMs' aggregate drain rate saturates
        # DRAM, more reclaimed SMs mean strictly more writeback cycles.
        assert large.flush_cycles > small.flush_cycles

    def test_dirty_fraction_defaults_to_write_fraction(self):
        profile = get_application("kmeans")
        default = MODEL.flush_cost(GPU, 8, profile)
        explicit = TransitionCostModel(dirty_fraction=profile.write_fraction).flush_cost(
            GPU, 8, profile
        )
        assert default.flushed_dirty_bytes == explicit.flushed_dirty_bytes

    def test_application_change_flushes_retained_capacity(self):
        profiles = {name: get_application(name) for name in ("kmeans", "cfd")}
        unchanged = grant_transition(
            MODEL, GPU, {"kmeans": 40}, {"kmeans": 40}, profiles
        )
        changed = grant_transition(MODEL, GPU, {"kmeans": 40}, {"cfd": 40}, profiles)
        assert unchanged.is_zero
        # The ownership change orphans all 40 SMs: every one is flushed
        # with the outgoing application's write mix and re-warmed.
        assert changed.flush_cycles > 0 and changed.warmup_cycles > 0
        assert changed.reclaimed_sms == changed.added_sms == 40
        assert changed.flush_cycles == MODEL.flush_cost(
            GPU, 40, profiles["kmeans"]
        ).flush_cycles
        assert changed.warmup_cycles == MODEL.warmup_cost(GPU, 40).warmup_cycles


class TestPolicies:
    def test_fixed_split_never_transitions_on_single_app_timelines(self):
        decisions = _plan(FixedSplitPolicy(), bursty(low_sms=24, high_sms=60, bursts=2))
        worst_idle = GPU.num_sms - 60
        assert {d.split.num_cache_sms for d in decisions} == {worst_idle}
        assert all(d.transition.is_zero for d in decisions)

    def test_fixed_split_pays_the_same_app_change_flush_as_dynamic(self):
        # The outgoing application's extended-LLC contents are orphaned
        # whatever the policy; static and dynamic must account the ownership
        # change identically when their splits agree, or co-run comparisons
        # measure the bookkeeping instead of the capacity adaptation.
        scenario = corun_pair(application_a="kmeans", application_b="cfd",
                              sms_a=34, sms_b=34, rounds=1)
        static = _plan(FixedSplitPolicy(), scenario)
        dynamic = _plan(DynamicCapacityManager(), scenario)
        assert static[0].transition.is_zero
        assert not static[1].transition.is_zero
        assert static[1].split == dynamic[1].split
        assert static[1].transition == dynamic[1].transition

    def test_dynamic_tracks_idle_capacity_under_cap(self):
        scenario = steady(application="kmeans", compute_sms=10, num_phases=2)
        decisions = _plan(DynamicCapacityManager(), scenario)
        cap = max_cache_mode_sms(GPU, MORPHEUS)
        assert decisions[0].split.num_cache_sms == cap  # idle 58 > cap 51
        assert decisions[0].split.num_gated_sms == GPU.num_sms - 10 - cap

    def test_dynamic_first_phase_is_free(self):
        decisions = _plan(DynamicCapacityManager(), bursty(bursts=1))
        assert decisions[0].transition.is_zero

    def test_dynamic_charges_handback_and_regrowth(self):
        decisions = _plan(DynamicCapacityManager(), bursty(low_sms=24, high_sms=60, bursts=1))
        # lull(44 cache) -> burst(8 cache): 36 SMs handed back (flush).
        burst = decisions[1].transition
        assert burst.reclaimed_sms == 36
        assert burst.flush_cycles > 0 and burst.warmup_cycles == 0
        # burst -> lull: 36 SMs re-borrowed (warm-up).
        regrow = decisions[2].transition
        assert regrow.added_sms == 36
        assert regrow.warmup_cycles > 0 and regrow.flush_cycles == 0

    def test_dynamic_application_change_pays_even_without_resize(self):
        scenario = corun_pair(application_a="kmeans", application_b="cfd",
                              sms_a=34, sms_b=34, rounds=1)
        decisions = _plan(DynamicCapacityManager(), scenario)
        switch = decisions[1].transition
        assert decisions[0].split.num_cache_sms == decisions[1].split.num_cache_sms
        assert switch.flush_cycles > 0 and switch.warmup_cycles > 0

    def test_dynamic_hysteresis_damps_small_wiggles(self):
        # Demand easing 26 -> 24 frees two SMs; hysteresis keeps the old
        # allocation (it still fits) instead of paying a 2-SM warm-up.
        scenario = ScenarioSpec(
            name="wiggle",
            phases=(
                ScenarioPhase(application="kmeans", compute_sm_demand=26),
                ScenarioPhase(application="kmeans", compute_sm_demand=24),
            ),
        )
        damped = _plan(DynamicCapacityManager(hysteresis_sms=2), scenario)
        reactive = _plan(DynamicCapacityManager(), scenario)
        assert damped[1].split.num_cache_sms == damped[0].split.num_cache_sms
        assert damped[1].transition.is_zero
        assert reactive[1].split.num_cache_sms != reactive[0].split.num_cache_sms
        assert not reactive[1].transition.is_zero

    @pytest.mark.parametrize("value", [10.5, 2.0, True, False, "4"], ids=repr)
    def test_non_int_hysteresis_rejected(self, value):
        # Each would construct and then fail, or plan a flag as an SM count,
        # or key a run apart from its int twin, deep inside a run.
        with pytest.raises(ValueError, match="hysteresis_sms must be an int"):
            DynamicCapacityManager(hysteresis_sms=value)

    def test_negative_hysteresis_rejected(self):
        with pytest.raises(ValueError, match="hysteresis_sms must be non-negative"):
            DynamicCapacityManager(hysteresis_sms=-1)


class TestLowering:
    def test_baselines_have_no_cache_sms(self, engine):
        scenario = bursty(bursts=1)
        for system, gated_expected in (("BL", False), ("IBL", True)):
            lowering = engine.lower(scenario, system)
            for phase, signature_id, transition_id in zip(
                scenario.phases, lowering.signature_ids, lowering.transition_ids
            ):
                (leaf,) = lowering.leaves[signature_id]
                assert leaf.config.num_cache_sms == 0
                assert leaf.config.morpheus is None
                assert leaf.config.power_gate_unused == gated_expected
                assert leaf.config.num_compute_sms == phase.compute_sm_demand
                assert lowering.transitions[transition_id].is_zero

    def test_morpheus_lull_phases_borrow_idle_sms(self, engine):
        lowering = engine.lower(bursty(low_sms=24, high_sms=60, bursts=1), "Morpheus-ALL")
        (lull,) = lowering.leaves[lowering.signature_ids[0]]
        assert lull.config.num_cache_sms == GPU.num_sms - 24
        assert lull.config.morpheus is not None
        assert lull.config.morpheus.enable_compression  # the ALL variant

    def test_phases_sharing_a_decision_keep_their_own_weights(self, engine):
        # The plan memo hands phases two and three the same decision object
        # (same previous split, same residents); their weights differ, so
        # they lower to distinct signatures that share one leaf config.
        scenario = ScenarioSpec(
            name="weights",
            phases=tuple(
                ScenarioPhase(
                    application="kmeans", compute_sm_demand=24, duration_weight=weight
                )
                for weight in (1.0, 2.0, 3.0)
            ),
        )
        lowering = engine.lower(scenario, "Morpheus-Basic")
        assert [
            lowering.signatures[signature_id].duration_weight
            for signature_id in lowering.signature_ids
        ] == [1.0, 2.0, 3.0]
        assert lowering.counts == (1, 1, 1)
        assert len(set(lowering.leaves)) == 1

    def test_unknown_system_and_oversized_demand_raise(self, engine):
        with pytest.raises(ValueError, match="unknown scenario system"):
            engine.lower(bursty(bursts=1), "IBL-4X-LLC")
        # Every system's plan checks the demand of each distinct state,
        # here the second phase's, and names the phase.
        too_big = ScenarioSpec(
            name="big",
            phases=(
                ScenarioPhase(application="kmeans", compute_sm_demand=24),
                ScenarioPhase(
                    residents=(Residency("kmeans", 40), Residency("cfd", 40)),
                    label="crowd",
                ),
            ),
        )
        for system in SCENARIO_SYSTEMS:
            with pytest.raises(
                ValueError,
                match=f"^phase 'crowd' demands 80 SMs but the GPU has {GPU.num_sms}$",
            ):
                engine.lower(too_big, system)


class TestEngineRun:
    def test_repeated_phases_replay_at_most_once(self, engine):
        scenario = steady(application="kmeans", compute_sms=24, num_phases=6)
        with using_runner(engine.runner):
            result = engine.run(scenario, "Morpheus-Basic")
        assert len(result) == 6
        assert engine.runner.replays == 1  # six phases, one distinct leaf

    def test_bursty_pays_transitions_steady_does_not(self, engine):
        with using_runner(engine.runner):
            burst_run = engine.run(bursty(bursts=2), "Morpheus-ALL")
            steady_run = engine.run(steady(application="kmeans", compute_sms=24),
                                    "Morpheus-ALL")
        assert burst_run.transition_cycles > 0
        assert steady_run.transition_cycles == 0
        assert burst_run.total_cycles == pytest.approx(
            burst_run.compute_cycles + burst_run.transition_cycles
        )

    def test_instruction_accounting_follows_weights(self, engine):
        scenario = bursty(low_weight=2.0, high_weight=1.0, bursts=1)
        with using_runner(engine.runner):
            result = engine.run(scenario, "IBL")
        expected = scenario.total_weight * scenario.instructions_per_weight
        assert result.total_instructions == pytest.approx(expected)
        lull = result.phases[0]
        assert lull.instructions == pytest.approx(2.0 * scenario.instructions_per_weight)
        assert lull.compute_cycles == pytest.approx(lull.instructions / lull.stats.ipc)

    def test_run_covers_baselines_and_all_variants(self, engine):
        scenario = steady(application="kmeans", compute_sms=34, num_phases=1)
        with using_runner(engine.runner):
            results = [engine.run(scenario, system) for system in SCENARIO_SYSTEMS]
        assert [result.system for result in results] == list(SCENARIO_SYSTEMS)
        assert all(len(result) == 1 for result in results)

    def test_run_key_distinguishes_policies_and_systems(self, engine):
        scenario = bursty(bursts=1)
        keys = {
            engine.run_key(scenario, "Morpheus-ALL"),
            engine.run_key(scenario, "Morpheus-ALL", FixedSplitPolicy()),
            engine.run_key(scenario, "Morpheus-Basic"),
            engine.run_key(scenario, "IBL"),
        }
        assert len(keys) == 4

    @pytest.mark.parametrize("system", ["BL", "IBL"])
    def test_baseline_run_key_ignores_the_policy_argument(self, engine, system):
        # BL and IBL plan with their own policy whatever the caller passes,
        # so every policy argument names the one result they compute.
        scenario = get_scenario("mixed_tenancy")
        policies = (
            None,
            FixedSplitPolicy(),
            DynamicCapacityManager(),
            DynamicCapacityManager(hysteresis_sms=2),
        )
        keys = {engine.run_key(scenario, system, policy) for policy in policies}
        assert len(keys) == 1
        cache = engine.runner.disk_cache
        with using_runner(engine.runner):
            first = engine.run(scenario, system)
            assert cache.scenario_stores == 1
            for policy in policies[1:]:
                result = engine.run(scenario, system, policy)
                assert result.signatures == first.signatures
            assert cache.scenario_stores == 1
            references = [
                engine.solo_reference_ipcs(scenario, system, policy)
                for policy in policies
            ]
        assert all(reference == references[0] for reference in references)
        assert cache.scenario_stores == 2

    def test_run_key_covers_the_energy_constants(self, engine):
        # Scenario aggregates depend on the energy model leaves are scored
        # with; run keys must not collide across energy-model variants.
        from repro.energy.components import ComponentEnergies
        from repro.energy.model import EnergyModel

        scenario = bursty(bursts=1)
        baseline = engine.run_key(scenario, "Morpheus-Basic")
        expensive = ExperimentRunner(
            cache_dir=engine.runner.cache_dir,
            max_workers=0,
            energy_model=EnergyModel(ComponentEnergies(dram_pj_per_byte=999.0)),
        )
        sibling = ScenarioEngine(runner=expensive, fidelity=TINY_FIDELITY)
        assert sibling.run_key(scenario, "Morpheus-Basic") != baseline

    def test_engine_sizes_its_leaves_at_its_fidelity(self, engine):
        scenario = bursty(bursts=1)
        fast = ScenarioEngine(runner=engine.runner, fidelity=FAST_FIDELITY)
        assert fast.fidelity is FAST_FIDELITY
        lowering = fast.lower(scenario, "Morpheus-Basic")
        for signature_id in lowering.signature_ids:
            (leaf,) = lowering.leaves[signature_id]
            assert leaf.config.capacity_scale == FAST_FIDELITY.capacity_scale
            assert leaf.config.trace_accesses == FAST_FIDELITY.trace_accesses
        # The fidelity is part of the scenario run key, so aggregates at one
        # preset never shadow another's.
        assert fast.run_key(scenario, "Morpheus-Basic") != engine.run_key(
            scenario, "Morpheus-Basic"
        )

    def test_corun_phases_with_identical_configs_keep_their_own_stats(self, engine):
        # kmeans and cfd phases with equal demands lower to identical
        # SimulationConfigs (the config has no application field); results
        # must still be kept per application.
        scenario = corun_pair(application_a="kmeans", application_b="cfd",
                              sms_a=34, sms_b=34, rounds=1)
        with using_runner(engine.runner):
            result = engine.run(scenario, "IBL")
        assert result.phases[0].stats.application == "kmeans"
        assert result.phases[1].stats.application == "cfd"
        assert result.phases[0].stats.ipc != result.phases[1].stats.ipc
