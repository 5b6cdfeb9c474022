"""Per-layer host time and work counts for one benchmark operation.

:meth:`Recorder.install` wraps the entry points through which one layer of the
simulator is called from another (``ENTRY_POINTS``).  A wrapped call is a
span: its *self time* is its duration minus the duration of the wrapped
calls made inside it, and is charged to its layer.  Code that is not
wrapped belongs to the innermost wrapped call around it, so the layer
times of an operation add up to the instrumented part of it without
double counting.  Only per-layer totals are kept in memory, never
per-call records.

:meth:`Recorder.install` returns the entry points it could not find: a
refactor that renames one would silently move its layer's time into the
caller, so the benchmark reports such a run as incorrect.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from typing import Dict, List, Optional, Sequence, Tuple

#: The layers, in the order the replay pipeline reaches them.
LAYERS: Tuple[str, ...] = (
    "trace_gen",
    "engine",
    "llc",
    "morpheus",
    "noc",
    "dram",
    "scoring",
    "cache_io",
    "runner",
    "experiment",
)

#: (layer, module, class, methods) — ``None`` wraps every non-dunder method
#: the class itself defines.  Per-access entry points (LLC, Morpheus, NoC,
#: DRAM) are listed by name to keep the tracing overhead on the replay loop
#: small.  ``llc`` is the conventional LLC partition; ``morpheus`` is the
#: Morpheus controller (address separation, query logic) with the extended
#: LLC and the hit/miss predictor it drives.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Sequence[str]]], ...] = (
    ("trace_gen", "repro.workloads.generator", "TraceGenerator", ("generate",)),
    ("engine", "repro.sim.engine", "MemoryHierarchyEngine", ("__init__", "run")),
    ("llc", "repro.memory.llc", "LLCPartition", ("access",)),
    ("morpheus", "repro.core.controller", "MorpheusController", ("access",)),
    ("morpheus", "repro.core.extended_llc", "ExtendedLLC", ("access", "fill", "resident")),
    (
        "morpheus",
        "repro.core.hit_miss_predictor",
        "HitMissPredictor",
        ("predict", "record_outcome", "record_access"),
    ),
    ("noc", "repro.interconnect.network", "InterconnectNetwork", ("traverse",)),
    ("dram", "repro.memory.dram", "DRAMModel", ("access",)),
    ("scoring", "repro.sim.performance_model", "PerformanceModel", None),
    ("scoring", "repro.sim.vector_model", "MeasurementScorer", None),
    ("cache_io", "repro.runner.cache", "ResultCache", None),
    ("runner", "repro.runner.runner", "ExperimentRunner", None),
    ("experiment", "repro.systems.baseline", "EvaluatedSystem", None),
    ("experiment", "repro.systems.baseline", "BaselineSystem", None),
    ("experiment", "repro.systems.baseline", "ImprovedBaselineSystem", None),
    ("experiment", "repro.systems.morpheus_system", "MorpheusSystem", None),
    ("experiment", "repro.scenarios.engine", "ScenarioEngine", None),
    ("experiment", "repro.analysis.scenarios", "ScenarioAccumulator", None),
)


class Recorder:
    """Per-layer self time, call counts and replayed accesses.

    Spans are recorded only while :attr:`active` is true, so the untimed
    parts of a run (warm-up, warm re-runs, checks) stay out of the totals.
    """

    def __init__(self) -> None:
        self.active = False
        self.self_seconds: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: Trace entries handed to the replay loop (warm-up included).
        self.accesses = 0
        # One slot per open span: the time its wrapped children took.
        self._children: List[float] = [0.0]
        self._restore: List[Tuple[type, str, object]] = []

    def _wrap(self, layer: str, function):
        clock = time.perf_counter
        children = self._children
        self_seconds = self.self_seconds
        calls = self.calls
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not recorder.active:
                return function(*args, **kwargs)
            children.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_seconds[layer] += elapsed - children.pop()
                calls[layer] += 1
                children[-1] += elapsed

        return traced

    def _wrap_replay_loop(self, function):
        recorder = self

        @functools.wraps(function)
        def counted(engine, trace, *args, **kwargs):
            if recorder.active:
                recorder.accesses += len(trace)
            return function(engine, trace, *args, **kwargs)

        return counted

    def install(self) -> List[str]:
        """Wrap every entry point; return the ones the simulator lacks."""
        missing = []
        for layer, module_name, class_name, names in ENTRY_POINTS:
            try:
                owner = getattr(importlib.import_module(module_name), class_name)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{class_name}")
                continue
            if names is None:
                names = [
                    name
                    for name, value in vars(owner).items()
                    if isinstance(value, types.FunctionType)
                    and not (name.startswith("__") and name.endswith("__"))
                ]
            for name in names:
                original = vars(owner).get(name)
                if not isinstance(original, types.FunctionType):
                    missing.append(f"{module_name}.{class_name}.{name}")
                    continue
                wrapped = self._wrap(layer, original)
                if (module_name, class_name, name) == (
                    "repro.sim.engine", "MemoryHierarchyEngine", "run"
                ):
                    wrapped = self._wrap_replay_loop(wrapped)
                setattr(owner, name, wrapped)
                self._restore.append((owner, name, original))
        return missing

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` spent inside the open span out of its self time."""
        self._children[-1] += seconds

    def uninstall(self) -> None:
        """Put every wrapped entry point back."""
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
