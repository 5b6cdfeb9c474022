"""The memoized planning loop against the per-phase loops it replaced.

``CapacityPolicy.plan`` is one loop shared by every policy: it asks the
policy for each phase's (pool, shares), builds the transition and the
:class:`PhaseDecision`, and memoizes each decision on (previous pool,
previous shares in insertion order, phase residents).  The two loops each
policy used to run for itself, phase by phase with no memo, are kept here
as the reference, and both policies' plans must equal them phase by phase
with every float compared exactly (by ``repr``, which tells ``-0.0`` from
``0.0`` and round-trips every other float).

Random timelines miss the order case, so a fixed table covers it: after a
co-run phase whose residents are reordered, the flush of a later handback
sums the residents' flush terms in the shares' insertion order, and a memo
key blind to that order hands one phase the other's sum.

BL and IBL are planned by the baseline policy the engine picks for each.
The loop the engine once ran for them on its own, one fresh decision per
phase with no cache SMs and no transitions, is the reference for that
policy's plan, on the same random timelines and the same table.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MorpheusConfig
from repro.gpu.config import RTX3080_CONFIG
from repro.runner import ExperimentRunner
from repro.scenarios import ScenarioEngine, fleet
from repro.scenarios.engine import _BASELINE_POLICIES
from repro.scenarios.policy import (
    ARBITRATION_MODES,
    NO_TRANSITION,
    DynamicCapacityManager,
    FixedSplitPolicy,
    PhaseDecision,
    ResidentGrant,
    arbitrate_extended_llc,
    grant_transition,
    max_cache_mode_sms,
)
from repro.scenarios.spec import Residency, ScenarioPhase, ScenarioSpec
from repro.systems.morpheus_system import MorpheusOperatingPoint
from repro.workloads.applications import get_application
from scenario_test_utils import TINY_FIDELITY

GPU = RTX3080_CONFIG
MORPHEUS = MorpheusConfig()
#: The memory-bound applications of the figure benchmarks.
APPS = ("p-bfs", "cfd", "sgem", "kmeans", "spmv", "page-r")
PROFILES = {name: get_application(name) for name in APPS}


# -- the reference: each policy's own per-phase loop, with no memo ----------------


def _decision(phase, pool, shares, transition) -> PhaseDecision:
    demand = sum(residency.compute_sm_demand for residency in phase.residents)
    return PhaseDecision(
        split=MorpheusOperatingPoint(
            num_compute_sms=demand,
            num_cache_sms=pool,
            num_gated_sms=GPU.num_sms - demand - pool,
        ),
        transition=transition,
        grants=tuple(
            ResidentGrant(
                application=residency.application,
                compute_sms=residency.compute_sm_demand,
                cache_sms=shares[residency.application],
            )
            for residency in phase.residents
        ),
    )


def reference_fixed_plan(policy: FixedSplitPolicy, scenario) -> List[PhaseDecision]:
    worst_idle = GPU.num_sms - scenario.max_compute_sm_demand
    pool = max(0, min(worst_idle, max_cache_mode_sms(GPU, MORPHEUS)))
    decisions = []
    previous_shares: Dict[str, int] = {}
    for index, phase in enumerate(scenario.phases):
        shares = arbitrate_extended_llc(
            pool, phase.residents, PROFILES, policy.arbitration
        )
        if index == 0:
            transition = NO_TRANSITION
        else:
            transition = grant_transition(GPU, previous_shares, shares, PROFILES)
        decisions.append(_decision(phase, pool, shares, transition))
        previous_shares = shares
    return decisions


def reference_dynamic_plan(
    policy: DynamicCapacityManager, scenario
) -> List[PhaseDecision]:
    cap = max_cache_mode_sms(GPU, MORPHEUS)
    decisions = []
    previous_pool = 0
    previous_shares: Dict[str, int] = {}
    for index, phase in enumerate(scenario.phases):
        idle = GPU.num_sms - phase.total_compute_sm_demand
        target = max(0, min(idle, cap))
        pool = target
        if previous_pool <= idle and abs(target - previous_pool) <= policy.hysteresis_sms:
            pool = previous_pool
        shares = arbitrate_extended_llc(
            pool, phase.residents, PROFILES, policy.arbitration
        )
        if (
            pool == previous_pool
            and set(shares) == set(previous_shares)
            and all(
                abs(shares[name] - previous_shares[name]) <= policy.hysteresis_sms
                for name in shares
            )
        ):
            shares = dict(previous_shares)
        if index == 0:
            transition = NO_TRANSITION
        else:
            transition = grant_transition(GPU, previous_shares, shares, PROFILES)
        decisions.append(_decision(phase, pool, shares, transition))
        previous_pool = pool
        previous_shares = shares
    return decisions


def reference_baseline_plan(system: str, scenario) -> List[PhaseDecision]:
    """The engine's BL/IBL loop: no cache SMs, and nothing to transition."""
    return [
        PhaseDecision(
            split=MorpheusOperatingPoint(
                num_compute_sms=phase.total_compute_sm_demand,
                num_cache_sms=0,
                # BL keeps idle SMs active; IBL gates them.
                num_gated_sms=(
                    GPU.num_sms - phase.total_compute_sm_demand
                    if system == "IBL"
                    else 0
                ),
            ),
            transition=NO_TRANSITION,
            grants=tuple(
                ResidentGrant(
                    application=residency.application,
                    compute_sms=residency.compute_sm_demand,
                    cache_sms=0,
                )
                for residency in phase.residents
            ),
        )
        for phase in scenario.phases
    ]


#: Each baseline system by the name of the policy the engine plans it with.
BASELINE_SYSTEMS = {policy.name: system for system, policy in _BASELINE_POLICIES.items()}


def _reference(policy, scenario):
    if isinstance(policy, FixedSplitPolicy):
        return reference_fixed_plan(policy, scenario)
    if isinstance(policy, DynamicCapacityManager):
        return reference_dynamic_plan(policy, scenario)
    return reference_baseline_plan(BASELINE_SYSTEMS[policy.name], scenario)


def _plan(policy, scenario):
    return policy.plan(scenario, GPU, MORPHEUS, PROFILES)


def _mismatches(policy, scenario) -> List[int]:
    """Indices of the phases whose decision differs from the reference."""
    planned = _plan(policy, scenario)
    expected = _reference(policy, scenario)
    assert len(planned) == len(expected)
    return [
        index
        for index, (decision, reference) in enumerate(zip(planned, expected))
        if repr(decision) != repr(reference) or decision != reference
    ]


# -- random timelines ----------------------------------------------------------


@st.composite
def timelines(draw):
    """1-10 phases of 1-3 residents from the six applications.

    Each phase after the first draws new residents, reorders the previous
    phase's, changes their demands, or repeats an earlier phase, so
    reorders, application changes and repeated states all occur.
    """
    demands = st.integers(min_value=1, max_value=22)
    phases: List[ScenarioPhase] = []
    residents = ()
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        move = (
            draw(st.sampled_from(("new", "reorder", "demands", "repeat")))
            if phases
            else "new"
        )
        if move == "new":
            applications = draw(
                st.lists(st.sampled_from(APPS), min_size=1, max_size=3, unique=True)
            )
            residents = tuple(Residency(name, draw(demands)) for name in applications)
        elif move == "reorder":
            residents = tuple(draw(st.permutations(residents)))
        elif move == "demands":
            residents = tuple(
                Residency(residency.application, draw(demands))
                for residency in residents
            )
        else:
            residents = draw(st.sampled_from(phases)).residents
        phases.append(ScenarioPhase(residents=residents))
    return ScenarioSpec(name="random", phases=tuple(phases))


POLICIES = st.one_of(
    st.builds(FixedSplitPolicy, arbitration=st.sampled_from(ARBITRATION_MODES)),
    st.builds(
        DynamicCapacityManager,
        hysteresis_sms=st.integers(min_value=0, max_value=8),
        arbitration=st.sampled_from(ARBITRATION_MODES),
    ),
    st.sampled_from(list(_BASELINE_POLICIES.values())),
)


# 450 examples keep about 300 on the two memoized Morpheus policies.
@given(timelines(), POLICIES)
@settings(max_examples=450, deadline=None)
def test_plan_matches_the_per_phase_reference(scenario, policy):
    assert _mismatches(policy, scenario) == []


# -- the order table -----------------------------------------------------------

#: Every 3-of-6 trio, with each demand set assigned in trio order.
_TRIOS = list(itertools.combinations(APPS, 3))
_DEMAND_SETS = ((8, 12, 16), (4, 8, 20))
#: The five non-identity orders of three residents.
_REORDERS = [order for order in itertools.permutations(range(3)) if order != (0, 1, 2)]


def _order_timeline(trio, demands, order) -> ScenarioSpec:
    """``[trio, reordered, other alone, reordered, other alone]``."""
    residents = tuple(Residency(name, demand) for name, demand in zip(trio, demands))
    reordered = ScenarioPhase(residents=tuple(residents[i] for i in order))
    other = next(name for name in APPS if name not in trio)
    alone = ScenarioPhase(application=other, compute_sm_demand=16)
    return ScenarioSpec(
        name="order",
        phases=(ScenarioPhase(residents=residents), reordered, alone, reordered, alone),
    )


@pytest.mark.parametrize("demands", _DEMAND_SETS, ids=lambda d: "-".join(map(str, d)))
@pytest.mark.parametrize("trio", _TRIOS, ids="+".join)
def test_plan_keeps_the_flush_order_of_every_reordered_trio(trio, demands):
    failures = []
    for order, arbitration in itertools.product(_REORDERS, ARBITRATION_MODES):
        scenario = _order_timeline(trio, demands, order)
        for policy in (
            FixedSplitPolicy(arbitration=arbitration),
            DynamicCapacityManager(arbitration=arbitration),
            *_BASELINE_POLICIES.values(),
        ):
            mismatched = _mismatches(policy, scenario)
            if mismatched:
                failures.append((order, arbitration, policy.name, mismatched))
    assert failures == []


# -- the memo itself -----------------------------------------------------------

#: Every kind of policy the engine plans with.
MEMO_POLICIES = [FixedSplitPolicy(), DynamicCapacityManager(), *_BASELINE_POLICIES.values()]


@pytest.mark.parametrize("policy", MEMO_POLICIES, ids=lambda p: p.name)
def test_a_repeated_state_returns_the_same_decision_object(policy):
    # Every phase is built apart, so only equal values, not shared
    # objects, make two states repeat.
    def corun():
        return ScenarioPhase(residents=(Residency("kmeans", 24), Residency("cfd", 16)))

    def solo():
        return ScenarioPhase(application="spmv", compute_sm_demand=32)

    scenario = ScenarioSpec(name="cycle", phases=(corun(), solo()) * 3)
    decisions = _plan(policy, scenario)
    assert decisions == _reference(policy, scenario)
    # Entering the first phase is free, so it is not the later co-run
    # phases' decision; from then on the two states alternate.
    assert decisions[0] is not decisions[2]
    assert decisions[2] is decisions[4]
    assert decisions[1] is decisions[3] is decisions[5]


@pytest.mark.parametrize("policy", MEMO_POLICIES, ids=lambda p: p.name)
def test_a_fleet_plans_few_distinct_decisions(policy):
    scenario = fleet(num_phases=500, seed=3)
    decisions = _plan(policy, scenario)
    assert [repr(d) for d in decisions] == [
        repr(d) for d in _reference(policy, scenario)
    ]
    assert len({id(decision) for decision in decisions}) < len(decisions) // 5


def test_fresh_decision_objects_lower_to_the_same_run(tmp_path):
    # Decision objects that are equal but not shared never hit the
    # engine's per-decision lowering memo; the value-keyed signature dedup
    # behind it must give the same executions, ids and transitions.  Only
    # this test overrides ``plan``, to make every decision a fresh object.
    # (The subclass has its own run key, so its run is cold too.)
    class FreshDecisions(DynamicCapacityManager):
        def plan(self, *args, **kwargs):
            return [dataclasses.replace(d) for d in super().plan(*args, **kwargs)]

    scenario = fleet(num_phases=200, seed=4)
    runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
    engine = ScenarioEngine(runner=runner, fidelity=TINY_FIDELITY, seed=4)
    shared = engine.run(scenario, "Morpheus-Basic")
    fresh = engine.run(scenario, "Morpheus-Basic", FreshDecisions())
    assert fresh.signatures == shared.signatures
    assert list(fresh.phases.phase_ids) == list(shared.phases.phase_ids)
    assert fresh.phases.transitions == shared.phases.transitions
