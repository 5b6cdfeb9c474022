"""The report pipeline on a real 16-cell pooled trace (acceptance run).

One module-scoped fixture runs the acceptance-criterion workload — a
16-cell plan on a runner with two pool workers under an active
:class:`~repro.telemetry.Telemetry` — and the tests assert the report
shows per-stage time (parent and worker processes merged), per-tier cache
hit rates and the slowest replays, that the emitted JSONL passes schema
validation, and that the CLIs (``python -m repro.telemetry
report/validate`` and ``python -m repro.runner.cache stats --json``) work
end to end.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.runner import ExperimentRunner, ExperimentSpec
from repro.telemetry import Telemetry
from repro.telemetry.__main__ import main as telemetry_main
from repro.telemetry.report import percentile, render, summarize
from fidelity_utils import TINY_FIDELITY

#: 2 systems x 2 applications x 4 seeds = 16 cells.
SPEC = ExperimentSpec(
    systems=("BL", "IBL"),
    applications=("kmeans", "cfd"),
    seeds=(1, 2, 3, 4),
    fidelity=TINY_FIDELITY,
)


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """(trace_dir, cache_dir, results) of a traced 16-cell pooled plan."""
    base = tmp_path_factory.mktemp("accept")
    trace_dir = base / "trace"
    cache_dir = base / "cache"
    with pytest.MonkeyPatch.context() as patch:
        # On a 1-CPU host the runner would degrade 2 workers to serial;
        # pretend there are cores so the plan really runs in the pool.
        patch.setattr(os, "cpu_count", lambda: 2)
        with Telemetry(directory=trace_dir, enabled=True):
            with ExperimentRunner(cache_dir=cache_dir, max_workers=2) as runner:
                if runner._ensure_pool() is None:
                    pytest.skip("multiprocessing unavailable in this sandbox")
                results = runner.run_plan(SPEC)
    return trace_dir, cache_dir, results


class TestAcceptanceReport:
    def test_plan_ran_all_sixteen_cells(self, traced_run):
        _, _, results = traced_run
        assert len(list(results)) == 16

    def test_stage_breakdown_covers_the_pipeline(self, traced_run):
        trace_dir, _, _ = traced_run
        summary = summarize(trace_dir)
        stages = summary["stages"]
        for stage in (
            "runner.run_plan",
            "runner.pool_dispatch",
            "runner.cell",
            "runner.replay",
        ):
            assert stage in stages, f"missing stage {stage}"
            assert stages[stage]["count"] >= 1
            assert stages[stage]["total"] >= stages[stage]["max"] >= 0.0

    def test_cache_effectiveness_per_tier(self, traced_run):
        trace_dir, _, _ = traced_run
        cache = summarize(trace_dir)["cache"]
        for tier in ("measurements", "stats"):
            assert tier in cache, f"missing cache tier {tier}"
            assert 0.0 <= cache[tier]["hit_rate"] <= 1.0
            assert cache[tier].get("stores", 0) > 0
            assert cache[tier].get("bytes_written", 0) > 0

    def test_slowest_replays_listed_with_app(self, traced_run):
        trace_dir, _, _ = traced_run
        slowest = summarize(trace_dir)["slowest"]
        assert slowest
        assert all(entry["dur"] >= 0.0 for entry in slowest)
        assert all("app" in entry["attrs"] for entry in slowest)
        durations = [entry["dur"] for entry in slowest]
        assert durations == sorted(durations, reverse=True)

    def test_render_shows_the_required_sections(self, traced_run):
        trace_dir, _, _ = traced_run
        text = render(summarize(trace_dir))
        for section in (
            "time by stage",
            "cache effectiveness",
            "slowest replays",
        ):
            assert section in text

    def test_report_cli_text_and_json(self, traced_run, capsys):
        trace_dir, _, _ = traced_run
        assert telemetry_main(["report", str(trace_dir)]) == 0
        assert "time by stage" in capsys.readouterr().out
        assert telemetry_main(["report", str(trace_dir), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["stages"]["runner.cell"]["count"] == 16

    def test_validate_cli_accepts_the_trace(self, traced_run, capsys):
        trace_dir, _, _ = traced_run
        assert telemetry_main(["validate", str(trace_dir)]) == 0
        assert "all valid" in capsys.readouterr().out

    def test_cli_rejects_missing_directory(self, tmp_path, capsys):
        assert telemetry_main(["report", str(tmp_path / "nope")]) == 2
        capsys.readouterr()

    def test_validate_cli_flags_corrupt_trace(self, tmp_path, capsys):
        (tmp_path / "events-1-bad.jsonl").write_text('{"type": "mystery"}\n')
        assert telemetry_main(["validate", str(tmp_path)]) == 1
        capsys.readouterr()

    def test_cache_stats_json_cli(self, traced_run, capsys):
        from repro.runner.cache import main as cache_main

        _, cache_dir, _ = traced_run
        assert cache_main(["--cache-dir", str(cache_dir), "stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["directory"] == str(cache_dir)
        assert "measurements" in payload["tiers"]
        assert "stats" in payload["tiers"]


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_nearest_rank(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == 2.0  # ceil(0.5 * 4) - 1 = 1 -> second value
        assert percentile(values, 0.75) == 3.0
        assert percentile(values, 0.76) == 4.0

    def test_nearest_rank_one_to_hundred(self):
        # Regression: the old round(fraction * (n - 1)) formula returned 51.0
        # here (banker's rounding on an even-length sample).
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.5) == 50.0
        assert percentile(values, 0.95) == 95.0
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 1.0) == 100.0

    def test_singleton(self):
        assert percentile([7.0], 0.0) == 7.0
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 1.0) == 7.0
