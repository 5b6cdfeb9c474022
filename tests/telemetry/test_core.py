"""Core tracer/metrics contracts: off by default, JSONL sink, schema validity."""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.telemetry import (
    NULL_SPAN,
    TELEMETRY_DIR_ENV,
    TELEMETRY_ENV,
    TELEMETRY_SCHEMA_VERSION,
    Telemetry,
    telemetry,
)
from repro.telemetry.schema import validate_directory, validate_record


def _records(directory: Path):
    records = []
    for path in sorted(directory.glob("events-*.jsonl")):
        with path.open() as handle:
            records.extend(json.loads(line) for line in handle)
    return records


class TestDisabled:
    def test_disabled_by_default(self, monkeypatch, tmp_path):
        monkeypatch.delenv(TELEMETRY_ENV, raising=False)
        tel = Telemetry(directory=tmp_path)
        assert not tel.enabled

    def test_disabled_span_is_the_shared_null_span(self, tmp_path):
        tel = Telemetry(directory=tmp_path, enabled=False)
        span = tel.span("anything", key="value")
        assert span is NULL_SPAN
        with span as entered:
            entered.set(more="attrs")

    def test_disabled_writes_nothing(self, tmp_path):
        tel = Telemetry(directory=tmp_path, enabled=False)
        with tel.span("stage"):
            pass
        tel.count("counter")
        tel.observe("histogram", 1.0)
        tel.event("event")
        tel.flush()
        assert list(tmp_path.glob("events-*.jsonl")) == []


class TestEnabled:
    def test_meta_line_first_and_schema_stamped(self, tmp_path):
        tel = Telemetry(directory=tmp_path, enabled=True)
        tel.event("marker")
        tel.flush()
        records = _records(tmp_path)
        assert records[0]["type"] == "meta"
        assert records[0]["schema"] == TELEMETRY_SCHEMA_VERSION

    def test_span_nesting_records_parent(self, tmp_path):
        tel = Telemetry(directory=tmp_path, enabled=True)
        with tel.span("outer") as outer:
            with tel.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        tel.flush()
        spans = {r["name"]: r for r in _records(tmp_path) if r["type"] == "span"}
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
        assert spans["outer"]["parent_id"] is None
        assert spans["outer"]["dur"] >= spans["inner"]["dur"] >= 0.0

    def test_span_attrs_and_error_marking(self, tmp_path):
        tel = Telemetry(directory=tmp_path, enabled=True)
        try:
            with tel.span("failing", app="kmeans") as span:
                span.set(extra=1)
                raise ValueError("boom")
        except ValueError:
            pass
        tel.flush()
        (span_record,) = [r for r in _records(tmp_path) if r["type"] == "span"]
        assert span_record["attrs"] == {
            "app": "kmeans",
            "extra": 1,
            "error": "ValueError",
        }

    def test_metrics_snapshots_are_cumulative_with_seq(self, tmp_path):
        tel = Telemetry(directory=tmp_path, enabled=True)
        tel.count("jobs")
        tel.observe("latency", 0.5)
        tel.flush()
        tel.count("jobs", 2)
        tel.observe("latency", 1.5)
        tel.flush()
        snapshots = [r for r in _records(tmp_path) if r["type"] == "metrics"]
        assert [s["seq"] for s in snapshots] == [1, 2]
        last = snapshots[-1]
        assert last["counters"]["jobs"] == 3
        assert "gauges" not in last
        histogram = last["histograms"]["latency"]
        assert histogram["count"] == 2
        assert histogram["values"] == [0.5, 1.5]
        assert histogram["min"] == 0.5 and histogram["max"] == 1.5

    def test_emitted_files_pass_schema_validation(self, tmp_path):
        tel = Telemetry(directory=tmp_path, enabled=True)
        with tel.span("stage", n=1):
            tel.event("edge", job_id="j1")
        tel.count("c")
        tel.flush()
        files, errors = validate_directory(tmp_path)
        assert files == 1
        assert errors == []

    def test_fork_reset_drops_inherited_state(self, tmp_path):
        tel = Telemetry(directory=tmp_path, enabled=True)
        tel.count("inherited")
        tel.event("inherited-event")
        tel._reset_after_fork()
        tel.flush()
        records = _records(tmp_path)
        # Only a fresh meta line: the parent's buffered event and counter
        # must not be re-emitted by the child.
        assert all(r["type"] == "meta" for r in records)


class TestScoping:
    def test_context_installs_and_restores_active_instance(self, tmp_path):
        before = telemetry()
        with Telemetry(directory=tmp_path, enabled=True) as tel:
            assert telemetry() is tel
        assert telemetry() is before

    def test_context_exports_env_for_child_processes(self, monkeypatch, tmp_path):
        monkeypatch.delenv(TELEMETRY_ENV, raising=False)
        monkeypatch.delenv(TELEMETRY_DIR_ENV, raising=False)
        with Telemetry(directory=tmp_path, enabled=True):
            assert os.environ[TELEMETRY_ENV] == "1"
            assert os.environ[TELEMETRY_DIR_ENV] == str(tmp_path)
        assert TELEMETRY_ENV not in os.environ
        assert TELEMETRY_DIR_ENV not in os.environ

    def test_env_enables_the_default_instance(self, monkeypatch, tmp_path):
        monkeypatch.setenv(TELEMETRY_ENV, "1")
        monkeypatch.setenv(TELEMETRY_DIR_ENV, str(tmp_path))
        tel = Telemetry()
        assert tel.enabled
        assert tel.directory == tmp_path


class TestSchemaValidator:
    def test_rejects_unknown_type_and_missing_fields(self):
        assert validate_record({"type": "mystery"}) != []
        assert validate_record({"type": "span", "name": "x"}) != []
        assert validate_record([1, 2]) != []

    def test_rejects_wrong_schema_version(self):
        errors = validate_record(
            {
                "type": "meta",
                "schema": TELEMETRY_SCHEMA_VERSION + 1,
                "pid": 1,
                "host": "h",
                "ts": 0.0,
            }
        )
        assert any("schema" in error for error in errors)

    def test_empty_directory_is_an_error(self, tmp_path):
        files, errors = validate_directory(tmp_path)
        assert files == 0
        assert errors
