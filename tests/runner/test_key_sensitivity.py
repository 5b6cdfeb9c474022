"""Key-sensitivity harness for the two-phase replay/score contract.

Every :class:`~repro.sim.simulator.SimulationConfig` field must be keyed by
exactly one cache tier: perturbing a :data:`REPLAY_FIELDS` entry must change
``replay_key`` (and therefore ``score_key``, which embeds it), while
perturbing a :data:`SCORE_FIELDS` entry must change **only** ``score_key``
— otherwise a field silently falls out of the content keys and stale cached
results get served for new configurations.

The harness is parametrized over *every* field in both lists via a
perturbation table; a new ``SimulationConfig`` field fails the suite until
it is added both to one of the lists (the import-time guard in
``repro.sim.simulator`` enforces that) and to :data:`PERTURBATIONS` here
(:func:`test_harness_covers_every_field` enforces this one).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import MorpheusConfig
from repro.gpu.config import RTX3080_CONFIG
from repro.runner.spec import RunSpec
from repro.sim.performance_model import ResourceEnvelope
from repro.sim.simulator import REPLAY_FIELDS, SCORE_FIELDS, SimulationConfig
from repro.workloads.applications import get_application

#: Baseline config the perturbations are applied to.  It carries a Morpheus
#: configuration and cache-mode SMs so Morpheus-only fields are perturbable.
BASELINE = SimulationConfig(
    gpu=RTX3080_CONFIG,
    morpheus=MorpheusConfig(),
    num_compute_sms=20,
    num_cache_sms=8,
    power_gate_unused=True,
    capacity_scale=1.0 / 64.0,
    trace_accesses=800,
    warmup_accesses=200,
    request_interval_cycles=2.0,
    peak_warp_ipc_per_sm=4.0,
    mlp_per_sm=320.0,
    system_name="test",
    seed=1,
)

#: One value-changing perturbation per config field.  Every field of
#: ``REPLAY_FIELDS + SCORE_FIELDS`` must have an entry — adding a config
#: field without extending this table fails ``test_harness_covers_every_field``.
PERTURBATIONS = {
    "gpu": lambda c: dataclasses.replace(c, gpu=dataclasses.replace(c.gpu, num_sms=60)),
    "morpheus": lambda c: dataclasses.replace(
        c, morpheus=MorpheusConfig(enable_compression=True)
    ),
    "num_compute_sms": lambda c: dataclasses.replace(
        c, num_compute_sms=c.num_compute_sms + 1
    ),
    "num_cache_sms": lambda c: dataclasses.replace(
        c, num_cache_sms=c.num_cache_sms + 1
    ),
    "capacity_scale": lambda c: dataclasses.replace(
        c, capacity_scale=c.capacity_scale * 2.0
    ),
    "trace_accesses": lambda c: dataclasses.replace(
        c, trace_accesses=c.trace_accesses + 100
    ),
    "warmup_accesses": lambda c: dataclasses.replace(
        c, warmup_accesses=c.warmup_accesses + 100
    ),
    "request_interval_cycles": lambda c: dataclasses.replace(
        c, request_interval_cycles=c.request_interval_cycles + 1.0
    ),
    "seed": lambda c: dataclasses.replace(c, seed=c.seed + 1),
    "power_gate_unused": lambda c: dataclasses.replace(
        c, power_gate_unused=not c.power_gate_unused
    ),
    "peak_warp_ipc_per_sm": lambda c: dataclasses.replace(
        c, peak_warp_ipc_per_sm=c.peak_warp_ipc_per_sm + 1.0
    ),
    "mlp_per_sm": lambda c: dataclasses.replace(c, mlp_per_sm=c.mlp_per_sm + 16.0),
    "system_name": lambda c: dataclasses.replace(
        c, system_name=c.system_name + "-perturbed"
    ),
    "envelope": lambda c: dataclasses.replace(
        c, envelope=ResourceEnvelope(dram_bandwidth_share=0.5)
    ),
}


def _keys(config: SimulationConfig):
    run = RunSpec(get_application("kmeans"), config)
    return run.replay_key(), run.score_key()


def _perturbed(field: str) -> SimulationConfig:
    perturbed = PERTURBATIONS[field](BASELINE)
    # A perturbation that doesn't change the value would vacuously "pass".
    assert getattr(perturbed, field) != getattr(BASELINE, field), (
        f"perturbation for {field!r} left the value unchanged"
    )
    return perturbed


class TestFieldClassification:
    def test_every_config_field_is_classified_exactly_once(self):
        fields = {f.name for f in dataclasses.fields(SimulationConfig)}
        classified = set(REPLAY_FIELDS) | set(SCORE_FIELDS)
        assert fields == classified, (
            f"SimulationConfig fields out of sync with REPLAY_FIELDS/"
            f"SCORE_FIELDS: missing {sorted(fields - classified)}, "
            f"stale {sorted(classified - fields)}"
        )
        overlap = set(REPLAY_FIELDS) & set(SCORE_FIELDS)
        assert not overlap, f"fields classified in both tiers: {sorted(overlap)}"

    def test_harness_covers_every_field(self):
        # The guard the issue asks for: a new SimulationConfig field fails
        # this suite until a perturbation (and hence a key-sensitivity
        # check) exists for it.
        classified = set(REPLAY_FIELDS) | set(SCORE_FIELDS)
        assert set(PERTURBATIONS) == classified, (
            f"PERTURBATIONS out of sync: missing "
            f"{sorted(classified - set(PERTURBATIONS))}, "
            f"stale {sorted(set(PERTURBATIONS) - classified)}"
        )

    def test_params_expose_exactly_the_classified_fields(self):
        assert set(BASELINE.replay_params()) == set(REPLAY_FIELDS)
        assert set(BASELINE.score_params()) == set(SCORE_FIELDS)


class TestKeySensitivity:
    @pytest.mark.parametrize("field", REPLAY_FIELDS)
    def test_replay_field_changes_both_keys(self, field):
        base_replay, base_score = _keys(BASELINE)
        replay, score = _keys(_perturbed(field))
        assert replay != base_replay, (
            f"perturbing replay field {field!r} did not change replay_key — "
            "a stale cached measurement would be served for the new config"
        )
        assert score != base_score, (
            f"perturbing replay field {field!r} did not change score_key"
        )

    @pytest.mark.parametrize("field", SCORE_FIELDS)
    def test_score_field_changes_only_score_key(self, field):
        base_replay, base_score = _keys(BASELINE)
        replay, score = _keys(_perturbed(field))
        assert replay == base_replay, (
            f"perturbing score-only field {field!r} changed replay_key — "
            "analytic sweeps would needlessly re-replay traces"
        )
        assert score != base_score, (
            f"perturbing score-only field {field!r} did not change score_key — "
            "a stale cached result would be served for the new parameters"
        )

    def test_profile_and_energies_are_keyed(self):
        base_replay, base_score = _keys(BASELINE)
        other_profile = RunSpec(get_application("cfd"), BASELINE)
        assert other_profile.replay_key() != base_replay

        from repro.energy.components import ComponentEnergies

        other_energies = RunSpec(
            get_application("kmeans"),
            BASELINE,
            ComponentEnergies(dram_pj_per_byte=999.0),
        )
        assert other_energies.replay_key() == base_replay
        assert other_energies.score_key() != base_score


class TestTelemetryNeverEntersKeys:
    """No observability knob may reach a cache key (telemetry inertness)."""

    def test_telemetry_env_does_not_change_keys(self, monkeypatch):
        base = _keys(BASELINE)
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", "/tmp/somewhere-else")
        monkeypatch.setenv("REPRO_LOG_LEVEL", "DEBUG")
        assert _keys(BASELINE) == base

    def test_active_telemetry_does_not_change_keys(self, tmp_path):
        from repro.telemetry import Telemetry

        base = _keys(BASELINE)
        with Telemetry(directory=tmp_path, enabled=True):
            assert _keys(BASELINE) == base

    def test_no_telemetry_field_in_key_params(self):
        for params in (BASELINE.replay_params(), BASELINE.score_params()):
            flat = repr(params).lower()
            assert "telemetry" not in flat
            assert "trace_dir" not in flat
