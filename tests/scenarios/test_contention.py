"""Tests for shared-bandwidth contention: envelopes, the fixed-point solver,
the slowdown decomposition, scenario-aggregate persistence and the solo
reference memoization.

The load-bearing contracts:

* the default (whole-GPU) envelope scores bit-identically to the
  pre-envelope model, so every single-tenant result is unchanged;
* the co-run fixed point is deterministic (serial == parallel), bounded,
  and score-tier-only (a contended re-run never replays a trace);
* a saturating symmetric co-run slows both residents to their
  demand-proportional shares of the contended channel;
* ``contention_breakdown`` decomposes each resident's slowdown exactly
  into extended-LLC-grant and bandwidth-interference components.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import logging

import pytest

from repro.analysis.rescoring import envelope_sweep
from repro.analysis.scenarios import contention_breakdown, corun_table, per_app_timelines
from repro.runner import ExperimentRunner, using_runner
from repro.runner.cache import ResultCache, main as cache_cli
from repro.runner.spec import content_hash
from repro.scenarios import (
    ContentionModel,
    Residency,
    ScenarioEngine,
    ScenarioPhase,
    ScenarioSpec,
    corun_overlap,
    proportional_pressure_shares,
)
from repro.sim.performance_model import (
    DEFAULT_ENVELOPE,
    ResourceEnvelope,
    shared_bandwidth_capacities,
    shared_bandwidth_demand,
)
from repro.telemetry import Telemetry
from repro.telemetry.report import summarize
from repro.workloads.applications import get_application
from scenario_test_utils import TINY_FIDELITY

#: One saturating symmetric co-run phase: both residents are DRAM-bound and
#: each alone demands the GPU's full DRAM bandwidth, so the fixed point
#: must split the channel roughly in half.
SATURATING = ScenarioSpec(
    name="saturating",
    phases=(
        ScenarioPhase(residents=(Residency("spmv", 28), Residency("cfd", 24))),
    ),
)


def _engine(tmp_path, workers=0, **kwargs) -> ScenarioEngine:
    runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=workers)
    return ScenarioEngine(runner=runner, fidelity=TINY_FIDELITY, **kwargs)


@contextlib.contextmanager
def _warnings(name):
    """Collect the WARNING records logged to logger ``name`` in the block."""
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger(name)
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)


def _snapshot(result):
    return [
        (
            execution.index,
            [
                (
                    resident.application,
                    dataclasses.asdict(resident.stats),
                    resident.instructions,
                    dataclasses.asdict(resident.envelope),
                    resident.uncontended_ipc,
                )
                for resident in execution.residents
            ],
            execution.compute_cycles,
        )
        for execution in result.phases
    ]


class TestResourceEnvelope:
    def test_share_validation(self):
        with pytest.raises(ValueError, match="dram_bandwidth_share"):
            ResourceEnvelope(dram_bandwidth_share=0.0)
        with pytest.raises(ValueError, match="llc_bandwidth_share"):
            ResourceEnvelope(llc_bandwidth_share=1.5)
        with pytest.raises(ValueError, match="noc_bandwidth_share"):
            ResourceEnvelope(noc_bandwidth_share=-0.1)
        assert DEFAULT_ENVELOPE == ResourceEnvelope(1.0, 1.0, 1.0)

    def test_envelope_scales_the_shared_limits(self, tmp_path, kmeans_profile):
        runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
        base_config = dataclasses.replace(
            _leaf_config(tmp_path), envelope=DEFAULT_ENVELOPE
        )
        halved = dataclasses.replace(
            base_config,
            envelope=ResourceEnvelope(
                dram_bandwidth_share=0.5,
                llc_bandwidth_share=0.25,
                noc_bandwidth_share=0.75,
            ),
        )
        base = runner.simulate(kmeans_profile, base_config)
        contended = runner.simulate(kmeans_profile, halved)
        assert contended.limits["dram_bandwidth"] == pytest.approx(
            0.5 * base.limits["dram_bandwidth"]
        )
        assert contended.limits["llc_bandwidth"] == pytest.approx(
            0.25 * base.limits["llc_bandwidth"]
        )
        assert contended.limits["noc_bandwidth"] == pytest.approx(
            0.75 * base.limits["noc_bandwidth"]
        )
        # Compute and latency limits are private to the run, not enveloped.
        assert contended.limits["compute"] == base.limits["compute"]
        assert contended.limits["latency"] == base.limits["latency"]
        # One replay key serves both scorings.
        assert runner.replays == 1

    def test_envelope_sweep_rescoring_is_replay_free(self, tmp_path, kmeans_profile):
        runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
        config = _leaf_config(tmp_path)
        runner.simulate(kmeans_profile, config)
        assert runner.replays == 1
        shares = (1.0, 0.75, 0.5, 0.25)
        sweep = envelope_sweep(
            kmeans_profile,
            config,
            [ResourceEnvelope(dram_bandwidth_share=share) for share in shares],
            runner=runner,
        )
        assert runner.replays == 1  # the whole sweep re-scored from cache
        ipcs = [sweep[envelope].ipc for envelope in sweep]
        # kmeans is memory-bound: shrinking its DRAM slice must not raise
        # IPC, and a small enough slice must strictly bind.
        assert all(later <= earlier for earlier, later in zip(ipcs, ipcs[1:]))
        assert ipcs[-1] < ipcs[0]


def _leaf_config(tmp_path):
    from repro.sim.simulator import SimulationConfig

    return SimulationConfig(
        num_compute_sms=24,
        power_gate_unused=True,
        capacity_scale=TINY_FIDELITY.capacity_scale,
        trace_accesses=TINY_FIDELITY.trace_accesses,
        warmup_accesses=TINY_FIDELITY.warmup_accesses,
        system_name="test",
        seed=1,
    )


class TestProportionalPressureShares:
    def test_shares_follow_demand_and_sum_to_one(self):
        demands = [
            {"dram": 300.0, "llc": 10.0, "noc": 0.0},
            {"dram": 100.0, "llc": 30.0, "noc": 0.0},
        ]
        targets = proportional_pressure_shares(demands)
        assert targets[0]["dram"] == pytest.approx(0.75)
        assert targets[1]["dram"] == pytest.approx(0.25)
        assert targets[0]["llc"] == pytest.approx(0.25)
        assert targets[1]["llc"] == pytest.approx(0.75)
        # A channel nobody demands splits evenly (its limit is unbounded).
        assert targets[0]["noc"] == targets[1]["noc"] == pytest.approx(0.5)
        for channel in ("dram", "llc", "noc"):
            assert sum(t[channel] for t in targets) == pytest.approx(1.0)

    def test_zero_demand_resident_keeps_an_epsilon_share(self):
        targets = proportional_pressure_shares(
            [{"dram": 500.0, "llc": 0.0, "noc": 0.0}, {"dram": 0.0, "llc": 0.0, "noc": 0.0}]
        )
        assert targets[1]["dram"] > 0.0  # envelopes forbid zero shares

    def test_model_validation(self):
        with pytest.raises(ValueError, match="damping"):
            ContentionModel(damping=0.0)
        with pytest.raises(ValueError, match="damping"):
            ContentionModel(damping=1.5)
        with pytest.raises(ValueError, match="max_iterations"):
            ContentionModel(max_iterations=0)
        with pytest.raises(ValueError, match="tolerance"):
            ContentionModel(tolerance=0.0)


class TestSingleTenantUnchanged:
    def test_single_tenant_phases_match_direct_leaf_runs(self, tmp_path):
        # The refactor's bit-identity guarantee: with the default envelope a
        # single-tenant timeline scores exactly what a direct runner.simulate
        # of each leaf config scores — the contention layer is invisible.
        from repro.scenarios import bursty

        engine = _engine(tmp_path)
        scenario = bursty(bursts=1)
        with using_runner(engine.runner):
            result = engine.run(scenario, "Morpheus-Basic")
            lowering = engine.lower(scenario, "Morpheus-Basic")
        profile = get_application("kmeans")
        for execution, signature_id in zip(result.phases, lowering.signature_ids):
            resident = execution.residents[0]
            (leaf,) = lowering.leaves[signature_id]
            direct = engine.runner.simulate(profile, leaf.config)
            assert dataclasses.asdict(resident.stats) == dataclasses.asdict(direct)
            assert resident.envelope == DEFAULT_ENVELOPE
            assert resident.uncontended_ipc == resident.stats.ipc


class TestFixedPoint:
    def test_saturating_corun_slows_both_by_their_demand_shares(self, tmp_path):
        engine = _engine(tmp_path)
        with using_runner(engine.runner):
            result = engine.run(SATURATING, "Morpheus-Basic")
        residents = result.phases[0].residents
        gpu = engine.gpu
        capacity = shared_bandwidth_capacities(gpu)["dram"]
        total_demand = 0.0
        for resident in residents:
            # Both residents were DRAM-bound alone, each demanding the full
            # channel, so each converges to ~half its uncontended IPC.
            assert resident.stats.bottleneck == "dram_bandwidth"
            ratio = resident.stats.ipc / resident.uncontended_ipc
            assert 0.45 < ratio < 0.56
            total_demand += shared_bandwidth_demand(resident.stats, gpu)["dram"]
        # At the fixed point the contended channel is exactly saturated:
        # aggregate demand equals capacity (up to solver tolerance).
        assert total_demand == pytest.approx(capacity, rel=1e-3)
        shares = [r.envelope.dram_bandwidth_share for r in residents]
        assert sum(shares) == pytest.approx(1.0, rel=1e-6)

    def test_solver_is_deterministic_across_worker_counts(self, tmp_path):
        serial = _engine(tmp_path / "serial", workers=0)
        parallel = _engine(tmp_path / "parallel", workers=2)
        scenario = corun_overlap(rounds=2)
        with using_runner(serial.runner):
            serial_run = serial.run(scenario, "Morpheus-ALL")
        with using_runner(parallel.runner):
            parallel_run = parallel.run(scenario, "Morpheus-ALL")
        assert _snapshot(serial_run) == _snapshot(parallel_run)
        assert serial_run.run_key == parallel_run.run_key

    def test_disabled_model_reproduces_uncontended_corun(self, tmp_path):
        contended = _engine(tmp_path)
        disabled = ScenarioEngine(
            runner=contended.runner,
            fidelity=TINY_FIDELITY,
            contention=ContentionModel(enabled=False),
        )
        with using_runner(contended.runner):
            contended_run = contended.run(SATURATING, "Morpheus-Basic")
            disabled_run = disabled.run(SATURATING, "Morpheus-Basic")
        assert contended_run.run_key != disabled_run.run_key
        for execution in disabled_run.phases:
            for resident in execution.residents:
                assert resident.envelope == DEFAULT_ENVELOPE
                assert resident.stats.ipc == resident.uncontended_ipc
        # The contended run throttled what the disabled run did not.
        for contended_exec, disabled_exec in zip(
            contended_run.phases, disabled_run.phases
        ):
            for contended_res, disabled_res in zip(
                contended_exec.residents, disabled_exec.residents
            ):
                assert contended_res.stats.ipc < disabled_res.stats.ipc

    def test_contended_rerun_is_score_tier_only(self, tmp_path):
        # Re-solving with different solver knobs re-scores cached
        # measurements: stats-tier misses, but zero replays and zero
        # replay-tier misses — contention never touches the replay tier.
        cold = _engine(tmp_path)
        with using_runner(cold.runner):
            cold.run(SATURATING, "Morpheus-Basic")
        assert cold.runner.replays > 0

        runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
        perturbed = ScenarioEngine(
            runner=runner,
            fidelity=TINY_FIDELITY,
            contention=ContentionModel(damping=0.25),
        )
        with using_runner(runner):
            result = perturbed.run(SATURATING, "Morpheus-Basic")
        assert runner.replays == 0
        assert runner.disk_cache.replay_misses == 0
        assert runner.disk_cache.misses > 0  # new envelopes were re-scored
        # A different damping path converges to (nearly) the same fixed point.
        assert result.phases[0].residents[0].stats.ipc == pytest.approx(
            0.5 * result.phases[0].residents[0].uncontended_ipc, rel=0.1
        )


class TestContentionDecomposition:
    @pytest.fixture(scope="class")
    def corun_runs(self, tmp_path_factory):
        runner = ExperimentRunner(
            cache_dir=tmp_path_factory.mktemp("cache"), max_workers=0
        )
        engine = ScenarioEngine(runner=runner, fidelity=TINY_FIDELITY)
        scenario = corun_overlap(rounds=2)
        with using_runner(runner):
            result = engine.run(scenario, "Morpheus-ALL")
            references = engine.solo_reference_ipcs(scenario, "Morpheus-ALL")
        return result, references

    def test_bandwidth_interference_cycles_are_nonzero(self, corun_runs):
        # The acceptance criterion: a corun_overlap run shows nonzero
        # bandwidth-interference cycles — the leaves no longer each own the
        # whole DRAM system.
        result, references = corun_runs
        breakdown = contention_breakdown(result, references)
        assert breakdown.bandwidth_interference_cycles > 0
        for app in breakdown.per_app:
            assert app.bandwidth_interference_cycles > 0
            assert app.uncontended_ipc >= app.ipc

    def test_decomposition_sums_exactly(self, corun_runs):
        result, references = corun_runs
        breakdown = contention_breakdown(result, references)
        for app in breakdown.per_app:
            assert app.contention_cycles == pytest.approx(
                app.capacity_grant_cycles + app.bandwidth_interference_cycles
            )
        timelines = per_app_timelines(result)
        for app in breakdown.per_app:
            timeline = timelines[app.application]
            assert timeline.uncontended_slice_ipc >= timeline.slice_ipc

    def test_corun_table_reports_the_components(self, corun_runs):
        result, references = corun_runs
        table = corun_table(result, references)
        assert "grant cycles" in table
        assert "bandwidth cycles" in table
        assert "uncontended IPC" in table


class TestScenarioAggregateStore:
    def test_warm_rerun_loads_the_aggregate_not_the_leaves(self, tmp_path):
        cold = _engine(tmp_path)
        with using_runner(cold.runner):
            cold_run = cold.run(SATURATING, "Morpheus-Basic")
        assert cold.runner.disk_cache.scenario_stores == 1

        warm = _engine(tmp_path)
        with using_runner(warm.runner):
            warm_run = warm.run(SATURATING, "Morpheus-Basic")
        cache = warm.runner.disk_cache
        assert cache.scenario_hits == 1
        # Served wholly from the scenario tier: no leaf-tier traffic at all.
        assert cache.hits == cache.misses == 0
        assert cache.replay_hits == cache.replay_misses == 0
        assert warm.runner.replays == 0
        # And the reloaded aggregate is bit-identical to the computed one.
        assert _snapshot(cold_run) == _snapshot(warm_run)
        assert warm_run.run_key == cold_run.run_key
        assert warm_run.policy_name == cold_run.policy_name
        assert [dataclasses.asdict(e.decision.transition) for e in warm_run.phases] == [
            dataclasses.asdict(e.decision.transition) for e in cold_run.phases
        ]

    def test_same_runner_rerun_is_served_from_memory(self, tmp_path):
        engine = _engine(tmp_path)
        with using_runner(engine.runner):
            first = engine.run(SATURATING, "Morpheus-Basic")
            disk_hits = engine.runner.disk_cache.scenario_hits
            second = engine.run(SATURATING, "Morpheus-Basic")
        assert engine.runner.disk_cache.scenario_hits == disk_hits
        assert _snapshot(first) == _snapshot(second)

    @pytest.mark.parametrize(
        "corruption",
        [
            {"layout": "signatures", "policy_name": "x"},  # no phases at all
            "out_of_range_index",  # a phase's signature id past the table
            "negative_index",  # would silently pick the last signature
            "extra_phase",  # phase count disagrees with the scenario
            "missing_layout",  # not the signature layout
        ],
    )
    def test_malformed_aggregate_is_recomputed(self, tmp_path, corruption):
        engine = _engine(tmp_path)
        with using_runner(engine.runner):
            result = engine.run(SATURATING, "Morpheus-Basic")
        # Corrupt the stored aggregate, then re-run through a fresh runner.
        payload = json.loads(
            json.dumps(engine.runner.load_scenario_payload(result.run_key))
        )
        if corruption == "out_of_range_index":
            payload["phases"][0][0] = len(payload["signatures"])
        elif corruption == "negative_index":
            payload["phases"][0][0] = -1
        elif corruption == "extra_phase":
            payload["phases"].append(payload["phases"][0])
        elif corruption == "missing_layout":
            del payload["layout"]
        else:
            payload = corruption
        engine.runner.disk_cache.store_scenario(result.run_key, payload)
        fresh = _engine(tmp_path)
        with using_runner(fresh.runner):
            recomputed = fresh.run(SATURATING, "Morpheus-Basic")
        assert fresh.runner.disk_cache.scenario_stores == 1  # not trusted
        assert _snapshot(recomputed) == _snapshot(result)

    def test_per_phase_layout_payload_is_recomputed_and_reported(self, tmp_path):
        engine = _engine(tmp_path)
        with using_runner(engine.runner):
            result = engine.run(SATURATING, "Morpheus-Basic")
        payload = engine.runner.load_scenario_payload(result.run_key)
        signature = payload["signatures"][0]
        # The per-phase layout earlier engines wrote: one full entry per
        # phase and no "layout" tag.
        stale = {
            "policy_name": payload["policy_name"],
            "phases": [
                {
                    "index": 0,
                    "split": signature["split"],
                    "transition": payload["transitions"][0],
                    "grants": signature["grants"],
                    "residents": signature["residents"],
                    "instructions": signature["instructions"],
                    "compute_cycles": signature["compute_cycles"],
                }
            ],
        }
        engine.runner.disk_cache.store_scenario(result.run_key, stale)

        fresh = _engine(tmp_path)
        trace_dir = tmp_path / "trace"
        with _warnings("repro.scenarios.engine") as records:
            with Telemetry(directory=trace_dir, enabled=True):
                with using_runner(fresh.runner):
                    recomputed = fresh.run(SATURATING, "Morpheus-Basic")
        assert _snapshot(recomputed) == _snapshot(result)
        # Overwritten in the signature layout, counted once, logged once.
        assert fresh.runner.disk_cache.scenario_stores == 1
        assert (
            ResultCache(tmp_path / "cache").load_scenario(result.run_key)["layout"]
            == "signatures"
        )
        assert summarize(trace_dir)["counters"]["scenario.aggregate.recomputed"] == 1
        assert len(records) == 1
        assert result.run_key in records[0].getMessage()

    def test_malformed_solo_references_are_recomputed_and_reported(self, tmp_path):
        engine = _engine(tmp_path)
        scenario = corun_overlap(rounds=1)
        with using_runner(engine.runner):
            references = engine.solo_reference_ipcs(scenario, "Morpheus-Basic")
        references_key = content_hash(
            {"solo_references": engine.run_key(scenario, "Morpheus-Basic")}
        )
        engine.runner.disk_cache.store_scenario(
            references_key, {"references": {"spmv": 1.0}}
        )

        fresh = _engine(tmp_path)
        trace_dir = tmp_path / "trace"
        with _warnings("repro.scenarios.engine") as records:
            with Telemetry(directory=trace_dir, enabled=True):
                with using_runner(fresh.runner):
                    recomputed = fresh.solo_reference_ipcs(scenario, "Morpheus-Basic")
        assert recomputed == references
        assert summarize(trace_dir)["counters"]["scenario.aggregate.recomputed"] == 1
        assert len(records) == 1
        assert references_key in records[0].getMessage()

    def test_cache_cli_reports_the_scenario_tier(self, tmp_path, capsys):
        engine = _engine(tmp_path)
        with using_runner(engine.runner):
            engine.run(SATURATING, "Morpheus-Basic")
        assert cache_cli(["--cache-dir", str(tmp_path / "cache"), "stats"]) == 0
        output = capsys.readouterr().out
        assert "scenarios" in output
        line = next(line for line in output.splitlines() if "scenarios" in line)
        assert "1 entries" in " ".join(line.split())

    def test_run_key_covers_the_contention_knobs(self, tmp_path):
        engine = _engine(tmp_path)
        damped = ScenarioEngine(
            runner=engine.runner,
            fidelity=TINY_FIDELITY,
            contention=ContentionModel(damping=0.25),
        )
        assert engine.run_key(SATURATING, "Morpheus-Basic") != damped.run_key(
            SATURATING, "Morpheus-Basic"
        )


class TestSoloReferenceMemoization:
    def test_second_call_does_zero_runner_work(self, tmp_path):
        engine = _engine(tmp_path)
        scenario = corun_overlap(rounds=1)
        with using_runner(engine.runner):
            first = engine.solo_reference_ipcs(scenario, "Morpheus-Basic")
            runner = engine.runner
            before = (
                runner.replays,
                runner.memory_hits,
                runner.measurement_memory_hits,
                runner.disk_cache.tier_counters(),
            )
            second = engine.solo_reference_ipcs(scenario, "Morpheus-Basic")
            after = (
                runner.replays,
                runner.memory_hits,
                runner.measurement_memory_hits,
                runner.disk_cache.tier_counters(),
            )
        assert first == second
        assert before == after  # not a single lookup, load or replay

    def test_memo_returns_a_defensive_copy(self, tmp_path):
        engine = _engine(tmp_path)
        scenario = corun_overlap(rounds=1)
        with using_runner(engine.runner):
            first = engine.solo_reference_ipcs(scenario, "Morpheus-Basic")
            first["spmv"] = -1.0
            second = engine.solo_reference_ipcs(scenario, "Morpheus-Basic")
        assert second["spmv"] != -1.0

    def test_memo_distinguishes_policies(self, tmp_path):
        from repro.scenarios import DynamicCapacityManager, FixedSplitPolicy

        engine = _engine(tmp_path)
        scenario = corun_overlap(rounds=1)
        with using_runner(engine.runner):
            dynamic = engine.solo_reference_ipcs(
                scenario, "Morpheus-Basic", DynamicCapacityManager()
            )
            static = engine.solo_reference_ipcs(
                scenario, "Morpheus-Basic", FixedSplitPolicy()
            )
        # Different policies may legitimately coincide numerically on some
        # timelines, but they must not share one memo slot.
        assert len(engine._solo_reference_memo) == 2
        assert set(dynamic) == set(static) == {"spmv", "cfd"}
