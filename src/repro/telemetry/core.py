"""Span tracing and metrics: the process-safe core of the telemetry layer.

One :class:`Telemetry` instance owns a per-process event buffer and metrics
registry, flushed to a JSON-lines sink file under the trace directory
(``events-<pid>-<nonce>.jsonl``).  Every process participating in a run —
the parent runner and its pool workers — writes its **own** file, so no
cross-process synchronization is ever needed; the report CLI
(:mod:`repro.telemetry.report`) merges the files.

Three instrument families:

* **Spans** — nested wall-clock timing via the :meth:`Telemetry.span`
  context manager.  Each span records its start timestamp (``time.time``,
  comparable across processes), its duration (``time.perf_counter``,
  monotonic), its thread, and its parent span on the same thread.
* **Counters / gauges** — monotonic totals and last-value measurements,
  accumulated in-process and emitted as cumulative snapshots on flush (the
  report keeps only each file's last snapshot, so repeated flushes never
  double-count).
* **Duration histograms** — raw observation lists (bounded; overflow is
  counted, never silently dropped) so the report can compute exact
  percentiles across processes.

**Telemetry is off by default and observational only.**  When disabled
(no ``REPRO_TELEMETRY=1``, no active :class:`Telemetry`), ``span`` returns
a shared no-op context manager and the metric methods return immediately —
the instrumented hot paths additionally guard on :attr:`Telemetry.enabled`
so the disabled cost is one attribute read.  Nothing in this module ever
feeds a cache key: enabling tracing cannot change a ``replay_key``, a
``score_key``, a scenario ``run_key`` or any emitted stat
(``tests/telemetry/test_inertness.py`` asserts it bit-for-bit).

Fork safety: a forked child (a pool worker) resets the active instance's
buffer, registry and sink file, so inherited parent events are never
re-emitted and inherited counter values never double-count.
"""

from __future__ import annotations

import atexit
import json
import os
import socket
import sys
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Environment variable enabling telemetry (``1`` = on; anything else off).
TELEMETRY_ENV = "REPRO_TELEMETRY"

#: Environment variable selecting the trace directory the JSONL sinks are
#: written to (default :data:`DEFAULT_TELEMETRY_DIR`).
TELEMETRY_DIR_ENV = "REPRO_TELEMETRY_DIR"

#: Default trace directory (relative to the current working directory).
DEFAULT_TELEMETRY_DIR = ".repro_telemetry"

#: Version stamped into every sink file's ``meta`` line.  Bump when the
#: event layout changes so the report/validator can reject stale traces.
TELEMETRY_SCHEMA_VERSION = 1

#: Buffered events per sink before an automatic flush.
FLUSH_EVERY = 256

#: Hard cap on raw values one histogram keeps (overflow increments
#: ``dropped`` instead of growing without bound).
MAX_HISTOGRAM_VALUES = 65536


class _NullSpan:
    """The shared no-op span returned while telemetry is disabled."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


NULL_SPAN = _NullSpan()


class Span:
    """One in-flight span; ends (and records itself) on context exit."""

    __slots__ = ("_telemetry", "name", "attrs", "ts", "_start", "span_id", "parent_id")

    def __init__(self, telemetry: "Telemetry", name: str, attrs: Dict[str, Any]) -> None:
        self._telemetry = telemetry
        self.name = name
        self.attrs = attrs
        self.ts = 0.0
        self._start = 0.0
        self.span_id = uuid.uuid4().hex[:12]
        self.parent_id: Optional[str] = None

    def set(self, **attrs: Any) -> "Span":
        """Attach (or override) attributes mid-span; chainable."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = self._telemetry._span_stack()
        if stack:
            self.parent_id = stack[-1]
        stack.append(self.span_id)
        self.ts = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, *exc_info: Any) -> None:
        duration = time.perf_counter() - self._start
        stack = self._telemetry._span_stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._telemetry._emit(
            {
                "type": "span",
                "name": self.name,
                "ts": self.ts,
                "dur": duration,
                "pid": os.getpid(),
                "thread": threading.get_ident(),
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "attrs": self.attrs,
            }
        )


class _Histogram:
    """Raw-value histogram (bounded; overflow counted, never lost silently)."""

    __slots__ = ("count", "total", "min", "max", "values", "dropped")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.values: List[float] = []
        self.dropped = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if len(self.values) < MAX_HISTOGRAM_VALUES:
            self.values.append(value)
        else:
            self.dropped += 1

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "values": self.values,
            "dropped": self.dropped,
        }


class Telemetry:
    """One process's tracer + metrics registry + JSONL sink.

    Args:
        directory: Trace directory the sink file is written to.  Default:
            ``$REPRO_TELEMETRY_DIR`` or ``.repro_telemetry``.
        enabled: Force tracing on/off.  Default: ``$REPRO_TELEMETRY == "1"``.

    Use as a context manager to scope tracing to a block::

        with Telemetry(directory="trace", enabled=True):
            runner.run_plan(spec)      # instrumented code publishes here

    Entering installs the instance as the process-wide active telemetry
    *and* exports ``REPRO_TELEMETRY``/``REPRO_TELEMETRY_DIR`` so worker
    processes spawned inside the block inherit the configuration; exiting
    flushes, restores the previous instance and environment.
    """

    def __init__(
        self,
        directory: Optional[str | os.PathLike] = None,
        enabled: Optional[bool] = None,
    ) -> None:
        if enabled is None:
            enabled = os.environ.get(TELEMETRY_ENV, "") == "1"
        if directory is None:
            directory = os.environ.get(TELEMETRY_DIR_ENV, "").strip() or (
                DEFAULT_TELEMETRY_DIR
            )
        self.enabled = bool(enabled)
        self.directory = Path(directory)
        self._lock = threading.RLock()
        self._local = threading.local()
        self._events: List[Dict[str, Any]] = []
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, _Histogram] = {}
        self._seq = 0
        self._pid = os.getpid()
        self._path: Optional[Path] = None
        self._wrote_meta = False
        self._env_previous: Optional[Dict[str, Optional[str]]] = None
        self._previous: Optional["Telemetry"] = None

    # -- span / event / metric API -----------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """A context manager timing one named stage (no-op when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record one discrete event (a marker such as a phase signature)."""
        if not self.enabled:
            return
        self._emit(
            {
                "type": "event",
                "name": name,
                "ts": time.time(),
                "pid": os.getpid(),
                "attrs": attrs,
            }
        )

    def count(self, name: str, value: float = 1) -> None:
        """Increment the monotonic counter ``name`` by ``value``."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest ``value``."""
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``."""
        if not self.enabled:
            return
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = _Histogram()
            histogram.observe(value)

    # -- sink --------------------------------------------------------------------------

    def _span_stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _emit(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._events.append(record)
            if len(self._events) >= FLUSH_EVERY:
                self._flush_locked()

    def _sink_path(self) -> Path:
        if self._path is None:
            self._path = self.directory / (
                f"events-{os.getpid()}-{uuid.uuid4().hex[:8]}.jsonl"
            )
        return self._path

    def flush(self) -> None:
        """Write buffered events plus a cumulative metrics snapshot."""
        if not self.enabled:
            return
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        lines: List[Dict[str, Any]] = []
        if not self._wrote_meta:
            lines.append(
                {
                    "type": "meta",
                    "schema": TELEMETRY_SCHEMA_VERSION,
                    "pid": os.getpid(),
                    "host": socket.gethostname(),
                    "python": sys.version.split()[0],
                    "ts": time.time(),
                }
            )
        lines.extend(self._events)
        if self._counters or self._gauges or self._histograms:
            self._seq += 1
            lines.append(
                {
                    "type": "metrics",
                    "pid": os.getpid(),
                    "seq": self._seq,
                    "ts": time.time(),
                    "counters": dict(self._counters),
                    "gauges": dict(self._gauges),
                    "histograms": {
                        name: histogram.to_jsonable()
                        for name, histogram in self._histograms.items()
                    },
                }
            )
        if not lines:
            return
        path = self._sink_path()
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("a", encoding="utf-8") as handle:
                for line in lines:
                    handle.write(json.dumps(line) + "\n")
        except OSError:
            # Telemetry must never take a run down: an unwritable sink
            # (read-only filesystem, deleted directory) drops the batch.
            return
        finally:
            self._events.clear()
            self._wrote_meta = True

    def _reset_after_fork(self) -> None:
        """Drop inherited parent state in a forked child (see module doc)."""
        self._lock = threading.RLock()
        self._local = threading.local()
        self._events = []
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        self._seq = 0
        self._pid = os.getpid()
        self._path = None
        self._wrote_meta = False

    # -- scoping -----------------------------------------------------------------------

    def __enter__(self) -> "Telemetry":
        self._previous = set_telemetry(self)
        self._env_previous = {
            key: os.environ.get(key) for key in (TELEMETRY_ENV, TELEMETRY_DIR_ENV)
        }
        if self.enabled:
            os.environ[TELEMETRY_ENV] = "1"
            os.environ[TELEMETRY_DIR_ENV] = str(self.directory)
        else:
            os.environ[TELEMETRY_ENV] = "0"
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.flush()
        if self._env_previous is not None:
            for key, value in self._env_previous.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
            self._env_previous = None
        set_telemetry(self._previous)
        self._previous = None


# -- the process-wide instance ---------------------------------------------------------

_ACTIVE: Optional[Telemetry] = None
_ACTIVE_LOCK = threading.Lock()


def telemetry() -> Telemetry:
    """The process-wide telemetry (created from the environment on first use)."""
    tel = _ACTIVE
    if tel is None:
        with _ACTIVE_LOCK:
            tel = _ACTIVE
            if tel is None:
                tel = Telemetry()
                _install(tel)
    return tel


def set_telemetry(instance: Optional[Telemetry]) -> Optional[Telemetry]:
    """Install ``instance`` as the process-wide telemetry; the previous one."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        previous = _ACTIVE
        _install(instance)
    return previous


def _install(instance: Optional[Telemetry]) -> None:
    global _ACTIVE
    _ACTIVE = instance


def _flush_active_at_exit() -> None:
    tel = _ACTIVE
    if tel is not None:
        tel.flush()


def _reset_active_after_fork() -> None:
    tel = _ACTIVE
    if tel is not None:
        tel._reset_after_fork()


atexit.register(_flush_active_at_exit)
if hasattr(os, "register_at_fork"):  # pragma: no branch - always true on Linux
    os.register_at_fork(after_in_child=_reset_active_after_fork)
