"""Tests for concurrent co-run phases and shared extended-LLC arbitration.

Covers the multi-resident spec surface, the arbitration modes, per-resident
transition accounting (including the hysteresis edge cases: zero-idle
phases and back-to-back application changes), multi-resident lowering and
execution, and the co-run analysis metrics.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.scenarios import (
    contention_breakdown,
    corun_table,
    fairness,
    per_app_timelines,
    phase_table,
    weighted_speedup,
)
from repro.core.config import MorpheusConfig
from repro.gpu.config import RTX3080_CONFIG
from repro.runner import ExperimentRunner, using_runner
from repro.scenarios import (
    NO_TRANSITION,
    DynamicCapacityManager,
    FixedSplitPolicy,
    PhaseDecision,
    Residency,
    ScenarioEngine,
    ScenarioPhase,
    ScenarioSpec,
    TransitionCostModel,
    arbitrate_extended_llc,
    corun_overlap,
    get_scenario,
    llc_capacity_sensitivity,
    max_cache_mode_sms,
    mixed_tenancy,
)
from repro.systems.morpheus_system import MorpheusOperatingPoint
from repro.workloads.applications import get_application
from scenario_test_utils import TINY_FIDELITY

GPU = RTX3080_CONFIG
MORPHEUS = MorpheusConfig()
MODEL = TransitionCostModel()
PROFILES = {name: get_application(name) for name in ("kmeans", "cfd", "spmv")}


def _plan(policy, scenario):
    profiles = {name: get_application(name) for name in scenario.applications}
    return policy.plan(scenario, GPU, MORPHEUS, profiles, MODEL)


def _corun_phase(sms_a=28, sms_b=24, **overrides):
    base = dict(
        residents=(Residency("kmeans", sms_a), Residency("cfd", sms_b)),
    )
    base.update(overrides)
    return ScenarioPhase(**base)


@pytest.fixture
def engine(tmp_path):
    runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
    return ScenarioEngine(runner=runner, fidelity=TINY_FIDELITY)


class TestCorunSpec:
    def test_residency_validation(self):
        with pytest.raises(ValueError):
            Residency("", 10)
        with pytest.raises(ValueError):
            Residency("kmeans", 0)

    def test_both_constructor_forms_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            ScenarioPhase(
                application="kmeans",
                compute_sm_demand=10,
                residents=(Residency("cfd", 10),),
            )

    def test_duplicate_residents_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            ScenarioPhase(
                residents=(Residency("kmeans", 10), Residency("kmeans", 12))
            )

    def test_single_resident_forms_are_canonical(self):
        legacy = ScenarioPhase(application="kmeans", compute_sm_demand=24)
        modern = ScenarioPhase(residents=(Residency("kmeans", 24),))
        assert legacy == modern
        assert legacy.application == "kmeans"
        assert legacy.compute_sm_demand == 24
        assert not legacy.is_corun

    def test_corun_phase_properties(self):
        phase = _corun_phase(sms_a=28, sms_b=24)
        assert phase.is_corun
        assert phase.application is None
        assert phase.compute_sm_demand is None
        assert phase.applications == ("kmeans", "cfd")
        assert phase.total_compute_sm_demand == 52
        assert phase.describe() == "kmeans+cfd"

    def test_spec_aggregates_cover_residents(self):
        spec = ScenarioSpec(
            name="mix",
            phases=(
                ScenarioPhase(application="spmv", compute_sm_demand=60),
                _corun_phase(sms_a=28, sms_b=24),
            ),
        )
        assert spec.applications == ("spmv", "kmeans", "cfd")
        assert spec.max_compute_sm_demand == 60
        assert spec.has_corun_phases

    def test_library_shapes(self):
        overlap = corun_overlap(rounds=2)
        assert len(overlap) == 4
        assert all(phase.is_corun for phase in overlap.phases)
        tenancy = mixed_tenancy(rounds=1)
        assert [phase.is_corun for phase in tenancy.phases] == [False, True, False]
        assert get_scenario("corun_overlap", rounds=1).name == "corun_overlap"
        assert get_scenario("mixed_tenancy").name == "mixed_tenancy"
        with pytest.raises(ValueError):
            corun_overlap(dip_sms_b=30, sms_b=24)

    def test_corun_changes_scenario_key(self):
        solo = ScenarioSpec(
            name="a", phases=(ScenarioPhase(application="kmeans", compute_sm_demand=52),)
        )
        corun = ScenarioSpec(name="a", phases=(_corun_phase(28, 24),))
        assert solo.scenario_key() != corun.scenario_key()


class TestArbitration:
    RESIDENTS = (Residency("kmeans", 30), Residency("cfd", 10))

    def test_grants_sum_to_exactly_the_pool(self):
        for pool in range(0, 45):
            for mode in ("proportional", "sensitivity"):
                shares = arbitrate_extended_llc(pool, self.RESIDENTS, PROFILES, mode)
                assert sum(shares.values()) == pool
                assert all(share >= 0 for share in shares.values())

    def test_proportional_follows_compute_shares(self):
        shares = arbitrate_extended_llc(28, self.RESIDENTS, PROFILES, "proportional")
        assert shares == {"kmeans": 21, "cfd": 7}

    def test_sensitivity_weighting_shifts_grants(self):
        residents = (Residency("kmeans", 20), Residency("cfd", 20))
        proportional = arbitrate_extended_llc(30, residents, PROFILES, "proportional")
        sensitive = arbitrate_extended_llc(30, residents, PROFILES, "sensitivity")
        assert proportional == {"kmeans": 15, "cfd": 15}
        # kmeans misses the L1 more and streams less than cfd, so the
        # sensitivity mode steers pooled capacity toward it.
        assert llc_capacity_sensitivity(PROFILES["kmeans"]) > llc_capacity_sensitivity(
            PROFILES["cfd"]
        )
        assert sensitive["kmeans"] > sensitive["cfd"]
        assert sum(sensitive.values()) == 30

    def test_zero_sensitivity_degrades_to_proportional(self):
        # Fully streaming residents have zero capacity sensitivity; the
        # sensitivity mode must fall back to the compute-share split (not
        # equal shares), so an epsilon of sensitivity never causes a jump.
        import dataclasses as dc

        streaming = {
            name: dc.replace(profile, streaming_fraction=1.0)
            for name, profile in PROFILES.items()
        }
        residents = (Residency("kmeans", 40), Residency("cfd", 8))
        assert all(llc_capacity_sensitivity(p) == 0.0 for p in streaming.values())
        sensitive = arbitrate_extended_llc(12, residents, streaming, "sensitivity")
        proportional = arbitrate_extended_llc(12, residents, streaming, "proportional")
        assert sensitive == proportional == {"kmeans": 10, "cfd": 2}

    def test_invalid_mode_and_pool_raise(self):
        with pytest.raises(ValueError, match="arbitration"):
            arbitrate_extended_llc(10, self.RESIDENTS, PROFILES, "magic")
        with pytest.raises(ValueError, match="pool_sms"):
            arbitrate_extended_llc(-1, self.RESIDENTS, PROFILES)
        with pytest.raises(ValueError, match="arbitration"):
            DynamicCapacityManager(arbitration="magic")
        with pytest.raises(ValueError, match="arbitration"):
            FixedSplitPolicy(arbitration="magic")


class TestCorunPolicies:
    def test_grants_never_exceed_pooled_idle_sms(self):
        scenario = corun_overlap(sms_a=28, sms_b=24, dip_sms_b=8, rounds=2)
        for policy in (
            DynamicCapacityManager(),
            DynamicCapacityManager(arbitration="sensitivity"),
            FixedSplitPolicy(),
            FixedSplitPolicy(arbitration="sensitivity"),
        ):
            for decision, phase in zip(_plan(policy, scenario), scenario.phases):
                idle = GPU.num_sms - phase.total_compute_sm_demand
                pool = min(idle, max_cache_mode_sms(GPU, MORPHEUS))
                granted = sum(grant.cache_sms for grant in decision.grants)
                assert granted <= pool
                assert granted == decision.split.num_cache_sms

    def test_dynamic_pool_grows_in_dips_and_charges_per_resident(self):
        scenario = corun_overlap(sms_a=28, sms_b=24, dip_sms_b=8, rounds=1)
        decisions = _plan(DynamicCapacityManager(), scenario)
        full, dip = decisions
        assert dip.split.num_cache_sms > full.split.num_cache_sms
        # Entering the dip only grows capacity: warm-up, no flush.
        assert dip.transition.warmup_cycles > 0
        assert dip.transition.flush_cycles == 0

    def test_grant_shrink_flushes_only_the_shrinking_resident(self):
        # cfd's dip ends: the pool shrinks and (proportionally) both grants
        # move, but only grants that shrink pay flushes — and the flush uses
        # each shrinking resident's own write mix.
        scenario = corun_overlap(sms_a=28, sms_b=24, dip_sms_b=8, rounds=2)
        decisions = _plan(DynamicCapacityManager(), scenario)
        refull = decisions[2].transition  # dip-0 -> full-1
        assert refull.flush_cycles > 0
        assert refull.reclaimed_sms > 0
        grants_dip = {g.application: g.cache_sms for g in decisions[1].grants}
        grants_full = {g.application: g.cache_sms for g in decisions[2].grants}
        expected_reclaim = sum(
            max(0, grants_dip[app] - grants_full[app]) for app in grants_dip
        )
        assert refull.reclaimed_sms == expected_reclaim

    def test_mixed_tenancy_departure_flushes_the_departing_tenant(self):
        scenario = mixed_tenancy(rounds=1)
        decisions = _plan(DynamicCapacityManager(), scenario)
        shared, solo_b = decisions[1], decisions[2]
        grants = {g.application: g.cache_sms for g in shared.grants}
        # kmeans departs after the shared phase: its whole grant is
        # reclaimed; cfd's grant may grow toward the solo pool.
        assert solo_b.transition.reclaimed_sms >= grants["kmeans"]
        assert solo_b.transition.warmup_cycles > 0

    def test_static_and_dynamic_share_corun_accounting(self):
        # With equal pools, a tenancy change must cost both policies the
        # same — comparisons measure capacity adaptation, not bookkeeping.
        phase_a = ScenarioPhase(application="kmeans", compute_sm_demand=34)
        phase_b = ScenarioPhase(application="cfd", compute_sm_demand=34)
        scenario = ScenarioSpec(name="swap", phases=(phase_a, phase_b))
        static = _plan(FixedSplitPolicy(), scenario)
        dynamic = _plan(DynamicCapacityManager(), scenario)
        assert static[1].split == dynamic[1].split
        assert static[1].transition == dynamic[1].transition


class TestHysteresisEdges:
    def test_zero_idle_phase_flushes_everything_despite_hysteresis(self):
        scenario = ScenarioSpec(
            name="saturate",
            phases=(
                ScenarioPhase(application="kmeans", compute_sm_demand=24),
                ScenarioPhase(application="kmeans", compute_sm_demand=GPU.num_sms),
                ScenarioPhase(application="kmeans", compute_sm_demand=24),
            ),
        )
        decisions = _plan(DynamicCapacityManager(hysteresis_sms=4), scenario)
        lull, saturated, recover = decisions
        assert lull.split.num_cache_sms == 44
        # Zero idle: the whole allocation is handed back, hysteresis cannot
        # keep any of it, and the flush covers exactly the 44 lost SMs.
        assert saturated.split.num_cache_sms == 0
        assert saturated.split.num_gated_sms == 0
        assert saturated.transition.reclaimed_sms == 44
        assert saturated.transition.warmup_cycles == 0
        # Recovery re-warms exactly what was lost, once.
        assert recover.split.num_cache_sms == 44
        assert recover.transition.added_sms == 44
        assert recover.transition.flush_cycles == 0

    def test_back_to_back_app_changes_flush_exactly_once_each(self):
        scenario = ScenarioSpec(
            name="churn",
            phases=(
                ScenarioPhase(application="kmeans", compute_sm_demand=34),
                ScenarioPhase(application="cfd", compute_sm_demand=34),
                ScenarioPhase(application="spmv", compute_sm_demand=34),
            ),
        )
        decisions = _plan(DynamicCapacityManager(hysteresis_sms=8), scenario)
        pool = decisions[0].split.num_cache_sms
        # Each boundary flushes exactly the outgoing application's whole
        # grant (with *its* write mix) and re-warms the incoming one — no
        # double-charging, no carry-over.
        first = MODEL.flush_cost(GPU, pool, PROFILES["kmeans"])
        second = MODEL.flush_cost(GPU, pool, PROFILES["cfd"])
        assert decisions[1].transition.flushed_dirty_bytes == pytest.approx(
            first.flushed_dirty_bytes
        )
        assert decisions[2].transition.flushed_dirty_bytes == pytest.approx(
            second.flushed_dirty_bytes
        )
        for boundary in decisions[1:]:
            assert boundary.transition.reclaimed_sms == pool
            assert boundary.transition.added_sms == pool

    def test_corun_hysteresis_damps_per_resident_wiggles(self):
        # A small demand redistribution at constant total demand keeps the
        # pool; hysteresis must then also keep the per-resident slices, or
        # the redistribution pays the very transition it exists to skip.
        scenario = ScenarioSpec(
            name="wiggle-corun",
            phases=(
                ScenarioPhase(
                    residents=(Residency("kmeans", 28), Residency("cfd", 24))
                ),
                ScenarioPhase(
                    residents=(Residency("kmeans", 27), Residency("cfd", 25))
                ),
            ),
        )
        damped = _plan(DynamicCapacityManager(hysteresis_sms=2), scenario)
        reactive = _plan(DynamicCapacityManager(), scenario)
        damped_shares = [
            {g.application: g.cache_sms for g in d.grants} for d in damped
        ]
        assert damped_shares[0] == damped_shares[1]
        assert damped[1].transition.is_zero
        # Without hysteresis the proportional slices track the demand shift
        # and the boundary is charged.
        reactive_shares = [
            {g.application: g.cache_sms for g in d.grants} for d in reactive
        ]
        assert reactive_shares[0] != reactive_shares[1]
        assert not reactive[1].transition.is_zero

    def test_zero_idle_corun_phase(self):
        full = ScenarioPhase(
            residents=(Residency("kmeans", 40), Residency("cfd", 28)),
        )
        scenario = ScenarioSpec(name="full-corun", phases=(_corun_phase(), full))
        decisions = _plan(DynamicCapacityManager(hysteresis_sms=2), scenario)
        assert decisions[1].split.num_cache_sms == 0
        assert all(grant.cache_sms == 0 for grant in decisions[1].grants)


class TestCorunEngine:
    def test_corun_phase_lowers_to_one_leaf_per_resident(self, engine):
        scenario = corun_overlap(sms_a=28, sms_b=24, dip_sms_b=8, rounds=1)
        lowering = engine.lower(scenario, "Morpheus-ALL")
        for signature_id in lowering.signature_ids:
            leaves = lowering.leaves[signature_id]
            assert len(leaves) == 2
            for leaf, grant in zip(leaves, lowering.signatures[signature_id].grants):
                assert leaf.config.num_compute_sms == grant.compute_sms
                assert leaf.config.num_cache_sms == grant.cache_sms
                assert (leaf.config.morpheus is not None) == (grant.cache_sms > 0)

    def test_baseline_corun_lowering(self, engine):
        scenario = corun_overlap(rounds=1)
        for system in ("BL", "IBL"):
            lowering = engine.lower(scenario, system)
            for signature_id in lowering.signature_ids:
                leaves = lowering.leaves[signature_id]
                assert len(leaves) == 2
                assert all(leaf.config.num_cache_sms == 0 for leaf in leaves)
                assert all(
                    leaf.config.power_gate_unused == (system == "IBL")
                    for leaf in leaves
                )

    def test_corun_policy_must_return_grants(self, engine):
        class NoGrantsPolicy(FixedSplitPolicy):
            def plan(self, *args, **kwargs):
                return [
                    dataclasses.replace(decision, grants=())
                    for decision in super().plan(*args, **kwargs)
                ]

        scenario = corun_overlap(rounds=1)
        with pytest.raises(ValueError, match="per-resident grants"):
            engine.lower(scenario, "Morpheus-Basic", NoGrantsPolicy())

    def test_inconsistent_grants_rejected(self, engine):
        class SkimmingPolicy(FixedSplitPolicy):
            def plan(self, *args, **kwargs):
                decisions = super().plan(*args, **kwargs)
                return [
                    dataclasses.replace(
                        decision,
                        grants=tuple(
                            dataclasses.replace(grant, cache_sms=grant.cache_sms + 1)
                            for grant in decision.grants
                        ),
                    )
                    for decision in decisions
                ]

        scenario = corun_overlap(rounds=1)
        with pytest.raises(ValueError, match="cache grants sum"):
            engine.lower(scenario, "Morpheus-Basic", SkimmingPolicy())

    def test_single_tenant_grantless_decision_rejected(self, engine):
        # Every decision carries one grant per resident, single-tenant
        # phases included: the engine makes none up from the split.
        class GrantlessPolicy(FixedSplitPolicy):
            def plan(self, *args, **kwargs):
                return [
                    dataclasses.replace(decision, grants=())
                    for decision in super().plan(*args, **kwargs)
                ]

        scenario = ScenarioSpec(
            name="grantless",
            phases=(
                ScenarioPhase(application="kmeans", compute_sm_demand=24, label="lull"),
            ),
        )
        with pytest.raises(ValueError, match="phase 'lull'.*per-resident grants"):
            engine.lower(scenario, "Morpheus-Basic", GrantlessPolicy())
        # A decision cannot be built without its transition and grants.
        split = MorpheusOperatingPoint(
            num_compute_sms=24, num_cache_sms=0, num_gated_sms=GPU.num_sms - 24
        )
        with pytest.raises(TypeError):
            PhaseDecision(split=split)
        with pytest.raises(TypeError):
            PhaseDecision(split=split, transition=NO_TRANSITION)

    def test_corun_run_accounts_concurrent_residents(self, engine):
        scenario = corun_overlap(sms_a=28, sms_b=24, dip_sms_b=8, rounds=1)
        with using_runner(engine.runner):
            result = engine.run(scenario, "Morpheus-ALL")
        for execution in result.phases:
            assert len(execution.residents) == 2
            with pytest.raises(ValueError, match="use .residents"):
                execution.stats
            # The phase budget is retired collectively, each resident in
            # proportion to its leaf IPC, over one shared wall-clock.
            assert sum(r.instructions for r in execution.residents) == pytest.approx(
                execution.instructions
            )
            aggregate_ipc = sum(r.stats.ipc for r in execution.residents)
            assert execution.compute_cycles == pytest.approx(
                execution.instructions / aggregate_ipc
            )
        expected = scenario.total_weight * scenario.instructions_per_weight
        assert result.total_instructions == pytest.approx(expected)

    def test_corun_serial_equals_parallel(self, tmp_path):
        scenario = mixed_tenancy(rounds=1)

        def snapshot(result):
            return [
                (
                    execution.index,
                    [
                        (
                            resident.application,
                            dataclasses.asdict(resident.grant),
                            dataclasses.asdict(resident.stats),
                            resident.instructions,
                        )
                        for resident in execution.residents
                    ],
                    dataclasses.asdict(execution.decision.transition),
                    execution.compute_cycles,
                )
                for execution in result.phases
            ]

        def run(cache_dir, workers):
            runner = ExperimentRunner(cache_dir=cache_dir, max_workers=workers)
            engine = ScenarioEngine(runner=runner, fidelity=TINY_FIDELITY)
            with using_runner(runner):
                return runner, engine.run(scenario, "Morpheus-Basic")

        serial_runner, serial = run(tmp_path / "serial", 0)
        parallel_runner, parallel = run(tmp_path / "parallel", 2)
        assert snapshot(serial) == snapshot(parallel)
        assert serial.run_key == parallel.run_key
        assert serial_runner.replays == parallel_runner.replays

    def test_warm_corun_rerun_has_zero_replay_tier_misses(self, tmp_path):
        scenario = corun_overlap(rounds=2)

        def run():
            runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
            engine = ScenarioEngine(runner=runner, fidelity=TINY_FIDELITY)
            with using_runner(runner):
                result = engine.run(scenario, "Morpheus-Basic")
            return runner, result

        cold_runner, _ = run()
        assert cold_runner.replays > 0
        warm_runner, _ = run()
        assert warm_runner.replays == 0
        assert warm_runner.disk_cache.replay_misses == 0
        assert warm_runner.disk_cache.misses == 0


class TestCorunAnalysis:
    @pytest.fixture(scope="class")
    def corun_runs(self, tmp_path_factory):
        runner = ExperimentRunner(
            cache_dir=tmp_path_factory.mktemp("cache"), max_workers=0
        )
        engine = ScenarioEngine(runner=runner, fidelity=TINY_FIDELITY)
        scenario = corun_overlap(sms_a=28, sms_b=24, dip_sms_b=8, rounds=2)
        with using_runner(runner):
            result = engine.run(
                scenario, "Morpheus-ALL", DynamicCapacityManager(arbitration="sensitivity")
            )
            references = engine.solo_reference_ipcs(
                scenario, "Morpheus-ALL", DynamicCapacityManager(arbitration="sensitivity")
            )
        return result, references

    def test_per_app_timelines(self, corun_runs):
        result, _ = corun_runs
        timelines = per_app_timelines(result)
        assert set(timelines) == {"spmv", "cfd"}
        total_instructions = sum(t.instructions for t in timelines.values())
        assert total_instructions == pytest.approx(result.total_instructions)
        for timeline in timelines.values():
            # Both residents span every phase of this timeline.
            assert timeline.resident_cycles == pytest.approx(result.total_cycles)
            assert timeline.ipc > 0
            assert timeline.mean_compute_sms > 0

    def test_weighted_speedup_and_fairness_bounds(self, corun_runs):
        result, references = corun_runs
        speedup = weighted_speedup(result, references)
        fair = fairness(result, references)
        # Two tenants sharing one GPU: each progresses slower than alone,
        # so 0 < WS < 2 and fairness sits in (0, 1].
        assert 0 < speedup < 2
        assert 0 < fair <= 1

    def test_contention_breakdown_consistency(self, corun_runs):
        result, references = corun_runs
        breakdown = contention_breakdown(result, references)
        assert {app.application for app in breakdown.per_app} == {"spmv", "cfd"}
        assert breakdown.weighted_speedup == pytest.approx(
            sum(app.normalized_progress for app in breakdown.per_app)
        )
        progress = {app.application: app for app in breakdown.per_app}
        for app in breakdown.per_app:
            assert app.reference_ipc == references[app.application]
            # Sharing can never beat running alone (leaves only lose
            # extended-LLC capacity), but capacity-insensitive residents
            # may tie the reference exactly.
            assert app.normalized_progress <= 1
            assert app.contention_cycles >= 0
        # spmv is capacity-sensitive: its smaller arbitrated share costs it.
        assert progress["spmv"].normalized_progress < 1
        assert progress["spmv"].contention_cycles > 0

    def test_reports_render(self, corun_runs):
        result, references = corun_runs
        table = corun_table(result, references)
        assert "weighted speedup" in table and "spmv" in table and "cfd" in table
        phases = phase_table(result)
        assert "spmv" in phases and "cfd" in phases
