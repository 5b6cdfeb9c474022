"""Simulation fidelity presets.

Every evaluated system runs the same trace-driven model; fidelity presets
control how long the replayed traces are and how aggressively capacities are
downscaled.  ``STANDARD`` is the library default: systems, sweeps,
experiment specs and the scenario engine use it unless told otherwise.
``FAST`` (1/32 capacities, shorter traces) drives the examples,
``scripts/bench_report.py`` and ``scripts/warm_cache_check.py``.  ``BENCH``
(1/32, longer traces than ``FAST``) sizes the figure checks under
``benchmarks/`` and ``scripts/spotcheck_fig12.py``; perfbench's fig12
workload keeps a copy of it, which a tier-1 test holds equal to this one.
The tier-1 tests use an even smaller ``TINY_FIDELITY``
(``tests/fidelity_utils.py``).  Every leaf config is sized through
:meth:`Fidelity.config`, the one place that maps a preset onto a
:class:`~repro.sim.simulator.SimulationConfig`'s capacity scale and trace
and warm-up lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.simulator import SimulationConfig


@dataclass(frozen=True)
class Fidelity:
    """Trace sizing knobs shared by all evaluated systems.

    Attributes:
        capacity_scale: Factor applied to cache capacities and footprints.
        trace_accesses: Measured LLC-level accesses per simulation
            (positive).
        warmup_accesses: Warm-up accesses replayed before measurement
            (0 replays none).
        search_trace_accesses: Accesses used during best-SM-count searches
            (positive; smaller, since only the argmax matters).
        search_warmup_accesses: Warm-up accesses used during searches.
    """

    capacity_scale: float = 1.0 / 16.0
    trace_accesses: int = 20_000
    warmup_accesses: int = 7_000
    search_trace_accesses: int = 8_000
    search_warmup_accesses: int = 3_000

    def __post_init__(self) -> None:
        if not 0.0 < self.capacity_scale <= 1.0:
            raise ValueError("capacity_scale must be in (0, 1]")
        # Every config this fidelity builds replays a trace of one of these
        # lengths, and SimulationConfig rejects an empty one.
        for name in ("trace_accesses", "search_trace_accesses"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("warmup_accesses", "search_warmup_accesses"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def config(self, search: bool = False, **fields) -> SimulationConfig:
        """A leaf config sized by this fidelity.

        Sets the capacity scale and the trace and warm-up sizing — the
        search sizing when ``search`` is true — and passes ``fields`` (SM
        split, system label, seed, ...) through to
        :class:`~repro.sim.simulator.SimulationConfig`.
        """
        if search:
            trace, warmup = self.search_trace_accesses, self.search_warmup_accesses
        else:
            trace, warmup = self.trace_accesses, self.warmup_accesses
        return SimulationConfig(
            capacity_scale=self.capacity_scale,
            trace_accesses=trace,
            warmup_accesses=warmup,
            **fields,
        )


STANDARD_FIDELITY = Fidelity()
"""Library-wide default fidelity."""

FAST_FIDELITY = Fidelity(
    capacity_scale=1.0 / 32.0,
    trace_accesses=6_000,
    warmup_accesses=2_000,
    search_trace_accesses=3_000,
    search_warmup_accesses=1_000,
)
"""Reduced fidelity for the examples and the quick CLI runs."""

BENCH_FIDELITY = Fidelity(
    capacity_scale=1.0 / 32.0,
    trace_accesses=8_000,
    warmup_accesses=3_000,
    search_trace_accesses=4_000,
    search_warmup_accesses=1_500,
)
"""The figure checks' fidelity (kept modest so the whole suite completes in
minutes; raise it for higher-precision reproductions)."""


def get_fidelity(fidelity: Fidelity) -> Fidelity:
    """``fidelity``, checked to be a :class:`Fidelity`.

    Entry points (system constructors, the scenario engine, experiment
    specs) pass their ``fidelity`` argument through here, so anything else
    fails at construction with a ``TypeError``.
    """
    if isinstance(fidelity, Fidelity):
        return fidelity
    raise TypeError(f"expected a Fidelity, got {type(fidelity).__name__}")
