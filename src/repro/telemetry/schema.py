"""Event schema for telemetry sink files, plus a validator.

A trace directory holds one ``events-<pid>-<nonce>.jsonl`` file per
participating process.  Four record types, discriminated by ``type``:

``meta``
    First line of every file: ``schema`` (int, must equal
    :data:`~repro.telemetry.core.TELEMETRY_SCHEMA_VERSION`), ``pid``,
    ``host``, ``python``, ``ts``.

``span``
    A completed timed stage: ``name``, ``ts`` (wall-clock start,
    ``time.time``), ``dur`` (seconds, ``perf_counter`` delta), ``pid``,
    ``thread``, ``span_id``, ``parent_id`` (may be null), ``attrs``.

``event``
    A discrete marker (a scenario's phase signatures): ``name``,
    ``ts``, ``pid``, ``attrs``.

``metrics``
    A cumulative snapshot of the process's registry: ``pid``, ``seq``
    (monotonic per file; the report keeps only the highest), ``ts``,
    ``counters`` (name → number), ``histograms`` (name → ``{count, sum,
    min, max, values, dropped}``).

The validator is deliberately structural (types and required fields, not
a catalog of known names) so new instruments never require a schema bump.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

from .core import TELEMETRY_SCHEMA_VERSION

#: record type → {field name: allowed types} (None in the tuple = nullable).
_REQUIRED_FIELDS: Dict[str, Dict[str, Tuple[type, ...]]] = {
    "meta": {
        "schema": (int,),
        "pid": (int,),
        "host": (str,),
        "ts": (int, float),
    },
    "span": {
        "name": (str,),
        "ts": (int, float),
        "dur": (int, float),
        "pid": (int,),
        "thread": (int,),
        "span_id": (str,),
        "attrs": (dict,),
    },
    "event": {
        "name": (str,),
        "ts": (int, float),
        "pid": (int,),
        "attrs": (dict,),
    },
    "metrics": {
        "pid": (int,),
        "seq": (int,),
        "ts": (int, float),
        "counters": (dict,),
        "histograms": (dict,),
    },
}

_HISTOGRAM_FIELDS: Dict[str, Tuple[type, ...]] = {
    "count": (int,),
    "sum": (int, float),
    "min": (int, float),
    "max": (int, float),
    "values": (list,),
    "dropped": (int,),
}


def iter_records(path: Path) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """Yield ``(line_number, record)`` for each JSON line in ``path``."""
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            yield line_number, json.loads(line)


def validate_record(record: Any) -> List[str]:
    """Structural errors in one decoded record (empty list = valid)."""
    if not isinstance(record, dict):
        return ["record is not an object"]
    record_type = record.get("type")
    if record_type not in _REQUIRED_FIELDS:
        return [f"unknown record type: {record_type!r}"]
    errors: List[str] = []
    for field, allowed in _REQUIRED_FIELDS[record_type].items():
        if field not in record:
            errors.append(f"{record_type}: missing field {field!r}")
        elif not isinstance(record[field], allowed) or isinstance(
            record[field], bool
        ):
            errors.append(
                f"{record_type}: field {field!r} has type "
                f"{type(record[field]).__name__}"
            )
    if record_type == "meta" and isinstance(record.get("schema"), int):
        if record["schema"] != TELEMETRY_SCHEMA_VERSION:
            errors.append(
                f"meta: schema {record['schema']} != "
                f"supported {TELEMETRY_SCHEMA_VERSION}"
            )
    if record_type == "metrics" and isinstance(record.get("histograms"), dict):
        for name, histogram in record["histograms"].items():
            if not isinstance(histogram, dict):
                errors.append(f"metrics: histogram {name!r} is not an object")
                continue
            for field, allowed in _HISTOGRAM_FIELDS.items():
                if field not in histogram:
                    errors.append(
                        f"metrics: histogram {name!r} missing field {field!r}"
                    )
                elif not isinstance(histogram[field], allowed) or isinstance(
                    histogram[field], bool
                ):
                    errors.append(
                        f"metrics: histogram {name!r} field {field!r} has "
                        f"type {type(histogram[field]).__name__}"
                    )
    return errors


def validate_file(path: Path) -> List[str]:
    """All errors in one sink file, prefixed ``<name>:<line>:``."""
    errors: List[str] = []
    saw_meta = False
    try:
        for line_number, record in iter_records(path):
            if line_number == 1:
                saw_meta = isinstance(record, dict) and record.get("type") == "meta"
            for error in validate_record(record):
                errors.append(f"{path.name}:{line_number}: {error}")
    except json.JSONDecodeError as exc:
        errors.append(f"{path.name}: invalid JSON ({exc})")
        return errors
    if not saw_meta:
        errors.append(f"{path.name}: first record is not a meta line")
    return errors


def validate_directory(directory: Path) -> Tuple[int, List[str]]:
    """Validate every ``events-*.jsonl`` under ``directory``.

    Returns ``(files_checked, errors)``; zero files is itself an error.
    """
    files = sorted(directory.glob("events-*.jsonl"))
    errors: List[str] = []
    for path in files:
        errors.extend(validate_file(path))
    if not files:
        errors.append(f"{directory}: no events-*.jsonl files found")
    return len(files), errors
