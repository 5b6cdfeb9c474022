"""Aggregate a trace directory into a per-run summary.

:func:`summarize` merges every process's sink file into one dictionary:

* ``stages`` — span durations aggregated by name (count / total / mean /
  max seconds), the per-stage wall-clock breakdown.
* ``counters`` / ``gauges`` — the metrics registries merged across
  processes (counters summed, gauges last-write-wins by snapshot time).
* ``histograms`` — merged raw-value histograms with p50/p95/p99.
* ``cache`` — per-tier hit/miss/store/byte counters folded into hit rates.
* ``slowest`` — the slowest replay spans, the leaves to look at first.

:func:`render` turns that dictionary into the human-readable text the
``python -m repro.telemetry report`` CLI prints; ``--json`` emits the
dictionary itself.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .schema import iter_records

#: Span name prefix treated as "a leaf replay" for the slowest-leaves table.
REPLAY_SPAN = "runner.replay"

#: How many slowest replay spans the summary keeps.
SLOWEST_LIMIT = 10


def percentile(values: List[float], fraction: float) -> float:
    """The ``fraction``-quantile of ``values`` (nearest-rank; 0 if empty).

    True nearest-rank: the smallest value with at least ``fraction`` of the
    sample at or below it, i.e. ``ordered[ceil(fraction * n) - 1]``.  So the
    p50 of ``1..100`` is 50, not 51 (the old ``round(fraction * (n - 1))``
    formula drifted one rank high on even-length samples).
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[index]


def _load(directory: Path) -> Tuple[
    List[Dict[str, Any]],
    List[Dict[str, Any]],
    List[Dict[str, Any]],
]:
    """(spans, events, last-metrics-snapshot-per-file) across all sinks."""
    spans: List[Dict[str, Any]] = []
    events: List[Dict[str, Any]] = []
    snapshots: List[Dict[str, Any]] = []
    for path in sorted(directory.glob("events-*.jsonl")):
        last_snapshot: Optional[Dict[str, Any]] = None
        try:
            for _, record in iter_records(path):
                record_type = record.get("type")
                if record_type == "span":
                    spans.append(record)
                elif record_type == "event":
                    events.append(record)
                elif record_type == "metrics":
                    # Snapshots are cumulative: only the newest per file counts.
                    if last_snapshot is None or record.get("seq", 0) >= last_snapshot.get(
                        "seq", 0
                    ):
                        last_snapshot = record
        except (OSError, json.JSONDecodeError):
            continue
        if last_snapshot is not None:
            snapshots.append(last_snapshot)
    return spans, events, snapshots


def _merge_metrics(
    snapshots: List[Dict[str, Any]],
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, Dict[str, Any]]]:
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    gauge_ts: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        snapshot_ts = snapshot.get("ts", 0.0)
        for name, value in snapshot.get("gauges", {}).items():
            if name not in gauge_ts or snapshot_ts >= gauge_ts[name]:
                gauges[name] = value
                gauge_ts[name] = snapshot_ts
        for name, histogram in snapshot.get("histograms", {}).items():
            merged = histograms.setdefault(
                name,
                {"count": 0, "sum": 0.0, "min": None, "max": None, "values": [],
                 "dropped": 0},
            )
            merged["count"] += histogram.get("count", 0)
            merged["sum"] += histogram.get("sum", 0.0)
            if histogram.get("count", 0):
                low, high = histogram.get("min", 0.0), histogram.get("max", 0.0)
                merged["min"] = low if merged["min"] is None else min(merged["min"], low)
                merged["max"] = high if merged["max"] is None else max(merged["max"], high)
            merged["values"].extend(histogram.get("values", []))
            merged["dropped"] += histogram.get("dropped", 0)
    for merged in histograms.values():
        values = merged.pop("values")
        merged["min"] = merged["min"] or 0.0
        merged["max"] = merged["max"] or 0.0
        merged["mean"] = merged["sum"] / merged["count"] if merged["count"] else 0.0
        merged["p50"] = percentile(values, 0.50)
        merged["p95"] = percentile(values, 0.95)
        merged["p99"] = percentile(values, 0.99)
    return counters, gauges, histograms


def _stage_breakdown(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    stages: Dict[str, Dict[str, float]] = {}
    for span in spans:
        stage = stages.setdefault(
            span["name"], {"count": 0, "total": 0.0, "max": 0.0}
        )
        stage["count"] += 1
        stage["total"] += span["dur"]
        stage["max"] = max(stage["max"], span["dur"])
    for stage in stages.values():
        stage["mean"] = stage["total"] / stage["count"] if stage["count"] else 0.0
    return stages


def _cache_summary(counters: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    tiers: Dict[str, Dict[str, float]] = {}
    for name, value in counters.items():
        if not name.startswith("cache."):
            continue
        parts = name.split(".")
        if len(parts) != 3:
            continue
        _, tier, field = parts
        tiers.setdefault(tier, {})[field] = value
    for stats in tiers.values():
        lookups = stats.get("hits", 0) + stats.get("misses", 0)
        stats["hit_rate"] = stats.get("hits", 0) / lookups if lookups else 0.0
    return tiers


def _scenario_summary(
    counters: Dict[str, float], histograms: Dict[str, Dict[str, Any]]
) -> Dict[str, Any]:
    """Scenario-engine dedup effectiveness and per-signature solve times.

    ``scenario.dedup.hits`` counts phases served by an already-solved
    signature; ``scenario.dedup.misses`` counts the distinct signatures
    actually solved.  ``scenario.signature_solve_seconds`` is the per
    distinct co-run signature contention-solve wall time.
    """
    hits = counters.get("scenario.dedup.hits", 0)
    misses = counters.get("scenario.dedup.misses", 0)
    solve = histograms.get("scenario.signature_solve_seconds")
    if not hits and not misses and solve is None:
        return {}
    phases = hits + misses
    return {
        "dedup_hits": hits,
        "dedup_misses": misses,
        "dedup_hit_rate": hits / phases if phases else 0.0,
        "signature_solve_seconds": solve,
    }


def _slowest(spans: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    replays = [span for span in spans if span["name"] == REPLAY_SPAN]
    replays.sort(key=lambda span: span["dur"], reverse=True)
    return [
        {
            "dur": span["dur"],
            "pid": span["pid"],
            "attrs": span.get("attrs", {}),
        }
        for span in replays[:SLOWEST_LIMIT]
    ]


def summarize(directory: Path) -> Dict[str, Any]:
    """The merged per-run summary of every sink file under ``directory``."""
    spans, events, snapshots = _load(directory)
    counters, gauges, histograms = _merge_metrics(snapshots)
    wall: Dict[str, float] = {}
    if spans or events:
        timestamps = [record["ts"] for record in spans + events]
        ends = [span["ts"] + span["dur"] for span in spans] or timestamps
        wall = {"start": min(timestamps), "end": max(ends)}
        wall["seconds"] = wall["end"] - wall["start"]
    return {
        "directory": str(directory),
        "processes": len({record["pid"] for record in spans + events + snapshots}),
        "spans": len(spans),
        "events": len(events),
        "wall": wall,
        "stages": _stage_breakdown(spans),
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "cache": _cache_summary(counters),
        "scenario": _scenario_summary(counters, histograms),
        "slowest": _slowest(spans),
    }


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:8.3f}s"
    return f"{value * 1000.0:7.2f}ms"


def render(summary: Dict[str, Any]) -> str:
    """The human-readable report for one :func:`summarize` result."""
    lines: List[str] = []
    wall = summary.get("wall") or {}
    lines.append(f"trace: {summary['directory']}")
    lines.append(
        f"processes: {summary['processes']}  spans: {summary['spans']}  "
        f"events: {summary['events']}"
        + (f"  wall: {wall['seconds']:.3f}s" if wall else "")
    )

    stages = summary["stages"]
    if stages:
        lines.append("")
        lines.append("time by stage")
        lines.append(f"  {'stage':<28} {'count':>6} {'total':>10} {'mean':>10} {'max':>10}")
        for name in sorted(stages, key=lambda n: -stages[n]["total"]):
            stage = stages[name]
            lines.append(
                f"  {name:<28} {stage['count']:>6d} {_fmt_seconds(stage['total'])} "
                f"{_fmt_seconds(stage['mean'])} {_fmt_seconds(stage['max'])}"
            )

    cache = summary["cache"]
    if cache:
        lines.append("")
        lines.append("cache effectiveness")
        lines.append(
            f"  {'tier':<14} {'hits':>7} {'misses':>7} {'stores':>7} "
            f"{'hit rate':>9} {'read':>10} {'written':>10}"
        )
        for tier in sorted(cache):
            stats = cache[tier]
            lines.append(
                f"  {tier:<14} {int(stats.get('hits', 0)):>7d} "
                f"{int(stats.get('misses', 0)):>7d} "
                f"{int(stats.get('stores', 0)):>7d} "
                f"{stats['hit_rate'] * 100.0:>8.1f}% "
                f"{int(stats.get('bytes_read', 0)):>10d} "
                f"{int(stats.get('bytes_written', 0)):>10d}"
            )

    scenario = summary.get("scenario") or {}
    if scenario:
        lines.append("")
        lines.append("scenario engine")
        lines.append(
            f"  phase dedup   hits {int(scenario['dedup_hits'])}  "
            f"signatures {int(scenario['dedup_misses'])}  "
            f"hit rate {scenario['dedup_hit_rate'] * 100.0:.1f}%"
        )
        solve = scenario.get("signature_solve_seconds")
        if solve:
            lines.append(
                f"  signature solve ({solve['count']})  "
                f"p50 {_fmt_seconds(solve['p50'])}  "
                f"p95 {_fmt_seconds(solve['p95'])}  "
                f"p99 {_fmt_seconds(solve['p99'])}  "
                f"max {_fmt_seconds(solve['max'])}"
            )

    histograms = summary["histograms"]
    if histograms:
        lines.append("")
        lines.append("histograms")
        lines.append(
            f"  {'name':<28} {'count':>6} {'mean':>10} {'p50':>10} {'p95':>10} {'max':>10}"
        )
        for name in sorted(histograms):
            histogram = histograms[name]
            lines.append(
                f"  {name:<28} {histogram['count']:>6d} {histogram['mean']:>10.4g} "
                f"{histogram['p50']:>10.4g} {histogram['p95']:>10.4g} "
                f"{histogram['max']:>10.4g}"
            )

    slowest = summary["slowest"]
    if slowest:
        lines.append("")
        lines.append("slowest replays")
        for entry in slowest:
            attrs = entry["attrs"]
            label = attrs.get("app") or attrs.get("replay_key", "")[:12] or "?"
            lines.append(
                f"  {_fmt_seconds(entry['dur'])}  {label}  (pid {entry['pid']})"
            )

    lines.append("")
    return "\n".join(lines)
