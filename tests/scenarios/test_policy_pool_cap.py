"""The dynamic manager's ``pool_cap_sms`` split-point knob.

The design-space search's "Morpheus split point" axis: a cap on the
dynamic manager's pooled cache-mode allocation, below the architectural
75 % cap.  The default (``None``) must reproduce the original plans bit
for bit — the knob is purely additive.
"""

from __future__ import annotations

import pytest

from repro.core.config import MorpheusConfig
from repro.gpu.config import RTX3080_CONFIG
from repro.scenarios.library import get_scenario
from repro.scenarios.policy import DynamicCapacityManager, TransitionCostModel
from repro.workloads.applications import get_application


def _plan(policy, scenario_name="mixed_tenancy"):
    scenario = get_scenario(scenario_name)
    profiles = {name: get_application(name) for name in scenario.applications}
    return policy.plan(
        scenario,
        RTX3080_CONFIG,
        MorpheusConfig(),
        profiles,
        TransitionCostModel(),
    )


def test_default_is_identical_to_the_original_behaviour():
    assert _plan(DynamicCapacityManager(pool_cap_sms=None)) == _plan(
        DynamicCapacityManager()
    )


def test_cap_limits_every_phase_pool():
    for cap in (0, 4, 12):
        decisions = _plan(DynamicCapacityManager(pool_cap_sms=cap))
        assert all(d.split.num_cache_sms <= cap for d in decisions)
        assert max(d.split.num_cache_sms for d in decisions) == min(
            cap,
            max(
                d.split.num_cache_sms
                for d in _plan(DynamicCapacityManager())
            ),
        )


def test_large_cap_is_a_no_op():
    assert _plan(DynamicCapacityManager(pool_cap_sms=68)) == _plan(
        DynamicCapacityManager()
    )


def test_negative_cap_rejected():
    with pytest.raises(ValueError, match="pool_cap_sms"):
        DynamicCapacityManager(pool_cap_sms=-1)


@pytest.mark.parametrize("knob", ["pool_cap_sms", "hysteresis_sms"])
@pytest.mark.parametrize("value", [10.5, 2.0, True, False, "4"], ids=repr)
def test_non_int_sm_counts_rejected(knob, value):
    # Each would construct and then fail, or plan a flag as an SM count,
    # or key a run apart from its int twin, deep inside a run.
    with pytest.raises(ValueError, match=f"{knob} must be an int"):
        DynamicCapacityManager(**{knob: value})


def test_negative_hysteresis_rejected():
    with pytest.raises(ValueError, match="hysteresis_sms must be non-negative"):
        DynamicCapacityManager(hysteresis_sms=-1)


def test_cap_enters_the_policy_fields():
    # The scenario-tier run key hashes vars(policy); the knob must be there.
    assert "pool_cap_sms" in vars(DynamicCapacityManager(pool_cap_sms=8))
