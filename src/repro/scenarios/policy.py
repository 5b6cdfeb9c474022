"""Capacity policies: how Morpheus splits SMs across a timeline's phases.

The repo's static evaluation searches offline for one best (compute, cache,
gated) split per application and never changes it.  Under a timeline that is
not enough: when a phase's compute demand rises, the scheduler *hands SMs
back* and the extended LLC must shrink — dirty extended-LLC blocks are
written back to DRAM before the SMs can leave cache mode — and when demand
falls, newly borrowed SMs start *cold* and must be re-warmed from DRAM.

Two policies model the ends of that spectrum:

* :class:`FixedSplitPolicy` — one conservative split sized for the
  timeline's worst-case demand, never resized: no resizing costs (only the
  unavoidable flush when the running application changes), but low phases
  waste idle SMs (they are gated instead of caching).
* :class:`DynamicCapacityManager` — tracks each phase's idle capacity,
  deriving phase *i*'s split from phase *i-1*'s and charging
  :class:`TransitionCostModel` costs on every reconfiguration (and on
  application changes, which orphan the extended LLC's contents).

The paper's baselines are policies too, private ones the scenario engine
picks from the system name: no idle SM ever caches, so no boundary costs
anything, and BL keeps the idle SMs active while IBL power-gates them.
Every system's decisions come from :meth:`CapacityPolicy.plan`.

Costs are *analytic* and layered on top of the per-phase replay/score
results: they never change a leaf simulation, so no cached measurement or
stats entry is invalidated by tuning them.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import MorpheusConfig
from repro.gpu.config import GPUConfig
from repro.scenarios.spec import Residency, ScenarioPhase, ScenarioSpec
from repro.systems.morpheus_system import MorpheusOperatingPoint
from repro.workloads.applications import ApplicationProfile

KIB = 1024

#: Supported extended-LLC arbitration modes for multi-resident phases.
ARBITRATION_MODES: Tuple[str, ...] = ("proportional", "sensitivity")


def _validate_arbitration(mode: str) -> str:
    """Validate an arbitration-mode name (shared by policies and arbiter)."""
    if mode not in ARBITRATION_MODES:
        valid = ", ".join(ARBITRATION_MODES)
        raise ValueError(f"unknown arbitration mode {mode!r}; expected one of: {valid}")
    return mode


def _check_sm_count(name: str, value: int) -> None:
    """Reject an SM-count knob that is not a non-negative int.

    A float or a bool would be accepted here and fail, or be planned as a
    flag, deep inside the run.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative")


def llc_capacity_sensitivity(profile: ApplicationProfile) -> float:
    """How much one application benefits from extra LLC capacity, per SM.

    The FUSE-style proxy: the fraction of instructions that miss the L1 and
    carry temporal reuse — traffic an extended LLC can actually capture.
    Streaming traffic (no reuse) is capacity-insensitive whatever the cache
    size, so it is excluded.
    """
    return (
        profile.memory_fraction
        * (1.0 - profile.l1_hit_rate)
        * (1.0 - profile.streaming_fraction)
    )


def _dram_pressure(profile: ApplicationProfile) -> float:
    """Per-SM proxy of one application's pressure on the shared DRAM channels."""
    return profile.memory_fraction * (1.0 - profile.l1_hit_rate)


def contended_llc_sensitivity(
    residency: Residency,
    residents: Sequence[Residency],
    profiles: Mapping[str, ApplicationProfile],
) -> float:
    """One resident's LLC capacity sensitivity *under its phase's contention*.

    Co-residents share the DRAM channels, so the value of an extended-LLC
    hit is not fixed: a byte captured on-chip dodges a DRAM system that the
    *other* residents are pressuring too.  The solo
    :func:`llc_capacity_sensitivity` is therefore scaled by the fraction of
    the phase's aggregate memory pressure contributed by the co-residents —
    ``base * (1 + others / total)`` — so grant decisions see the
    interference their placement relieves: capacity flows preferentially to
    tenants whose captured traffic unloads the most-contended channel.

    Continuity: for a single-tenant phase the co-resident pressure is zero
    and the contended sensitivity equals the solo one exactly, so
    single-tenant arbitration (and every pre-co-run timeline) is unchanged.
    """
    base = llc_capacity_sensitivity(profiles[residency.application])
    pressures = {
        entry.application: entry.compute_sm_demand
        * _dram_pressure(profiles[entry.application])
        for entry in residents
    }
    total = sum(pressures.values())
    if total <= 0.0:
        return base
    others = total - pressures[residency.application]
    return base * (1.0 + others / total)


def arbitrate_extended_llc(
    pool_sms: int,
    residents: Sequence[Residency],
    profiles: Mapping[str, ApplicationProfile],
    mode: str = "proportional",
) -> Dict[str, int]:
    """Split ``pool_sms`` cache-mode SMs across a phase's residents.

    Modes:

    * ``"proportional"`` — grants follow each resident's compute-SM share
      (more SMs generate more LLC traffic);
    * ``"sensitivity"`` — grants follow compute share **weighted by**
      :func:`contended_llc_sensitivity` — the solo capacity sensitivity
      scaled up by the co-residents' share of the phase's memory pressure —
      steering pooled capacity toward the residents whose captured traffic
      both converts into hits *and* relieves the contended shared channels.
      On a single-tenant phase this degrades to the solo
      :func:`llc_capacity_sensitivity` exactly.

    Uses largest-remainder apportionment with residency-order tie-breaking,
    so grants are deterministic integers that sum to exactly ``pool_sms``
    (never more than the pooled idle capacity).
    """
    _validate_arbitration(mode)
    if pool_sms < 0:
        raise ValueError("pool_sms must be non-negative")
    if mode == "sensitivity":
        weights = [
            residency.compute_sm_demand
            * contended_llc_sensitivity(residency, residents, profiles)
            for residency in residents
        ]
        if sum(weights) <= 0.0:
            # All residents fully streaming: degrade continuously to the
            # proportional split rather than jumping to equal shares.
            weights = [float(residency.compute_sm_demand) for residency in residents]
    else:
        weights = [float(residency.compute_sm_demand) for residency in residents]
    total = sum(weights)
    quotas = [pool_sms * weight / total for weight in weights]
    grants = [int(quota) for quota in quotas]
    leftover = pool_sms - sum(grants)
    # Hand the leftover SMs to the largest fractional parts, residency order
    # breaking ties (sort is stable, so equal remainders keep their order).
    by_remainder = sorted(
        range(len(residents)), key=lambda i: quotas[i] - grants[i], reverse=True
    )
    for index in by_remainder[:leftover]:
        grants[index] += 1
    return {
        residency.application: grant
        for residency, grant in zip(residents, grants)
    }


@dataclass(frozen=True)
class TransitionCost:
    """Cost of reconfiguring the extended LLC at a phase boundary.

    All cycle counts are core cycles charged *between* phases (the GPU is
    reconfiguring, not retiring application instructions).

    Attributes:
        flush_cycles: Cycles spent writing the reclaimed/orphaned extended
            LLC blocks' dirty data back to DRAM.
        warmup_cycles: Cycles spent refilling grown (or newly owned) extended
            LLC capacity from DRAM.
        flushed_dirty_bytes: Dirty extended-LLC bytes written back to DRAM.
        warmup_fill_bytes: Bytes streamed from DRAM to re-warm capacity.
        reclaimed_sms: Cache-mode SMs handed back to compute (or orphaned by
            an application change).
        added_sms: SMs newly entering cache mode (or re-warmed after an
            application change).
    """

    flush_cycles: float = 0.0
    warmup_cycles: float = 0.0
    flushed_dirty_bytes: float = 0.0
    warmup_fill_bytes: float = 0.0
    reclaimed_sms: int = 0
    added_sms: int = 0

    @property
    def total_cycles(self) -> float:
        """Total reconfiguration stall in core cycles."""
        return self.flush_cycles + self.warmup_cycles

    @property
    def dram_bytes(self) -> float:
        """Total DRAM traffic caused by the transition."""
        return self.flushed_dirty_bytes + self.warmup_fill_bytes

    @property
    def is_zero(self) -> bool:
        """True when the boundary required no reconfiguration work."""
        return self.total_cycles == 0.0 and self.dram_bytes == 0.0


#: A no-op transition (phase boundaries that keep the split and owner).
NO_TRANSITION = TransitionCost()


@dataclass(frozen=True)
class TransitionCostModel:
    """Analytic model of extended-LLC flush and warm-up costs.

    Attributes:
        extended_bytes_per_cache_sm: Extended-LLC capacity contributed by one
            cache-mode SM.  Defaults to the paper's combined RF+L1
            configuration (328 KiB, §5).
        dirty_fraction: Fraction of flushed capacity that is dirty and must
            be written back.  ``None`` uses the outgoing application's
            ``write_fraction`` (its steady-state mix of writes).
        warmup_fill_fraction: Fraction of grown capacity that is re-fetched
            from DRAM before the extended LLC reaches steady state.
        flush_bandwidth_gbps_per_sm: Rate at which one cache-mode SM can
            drain its stores during a flush, in **gigabytes** per second
            (the repo-wide ``*_gbps`` convention, e.g.
            ``ExtendedLLCTiming.per_sm_extended_bandwidth_gbps``); defaults
            to the extended LLC kernel's per-SM bandwidth (34 GB/s, §5).
    """

    extended_bytes_per_cache_sm: int = 328 * KIB
    dirty_fraction: Optional[float] = None
    warmup_fill_fraction: float = 0.85
    flush_bandwidth_gbps_per_sm: float = 34.0

    def __post_init__(self) -> None:
        if self.extended_bytes_per_cache_sm <= 0:
            raise ValueError("extended_bytes_per_cache_sm must be positive")
        if self.dirty_fraction is not None and not 0.0 <= self.dirty_fraction <= 1.0:
            raise ValueError("dirty_fraction must be in [0, 1]")
        if not 0.0 <= self.warmup_fill_fraction <= 1.0:
            raise ValueError("warmup_fill_fraction must be in [0, 1]")
        if self.flush_bandwidth_gbps_per_sm <= 0:
            raise ValueError("flush_bandwidth_gbps_per_sm must be positive")

    # -- cost primitives ---------------------------------------------------------------

    def _dram_bytes_per_cycle(self, gpu: GPUConfig) -> float:
        return gpu.dram.bytes_per_cycle_per_channel * gpu.dram.num_channels

    def flush_cost(
        self,
        gpu: GPUConfig,
        reclaimed_sms: int,
        outgoing_profile: ApplicationProfile,
    ) -> TransitionCost:
        """Cost of draining ``reclaimed_sms`` cache-mode SMs' extended LLC.

        Clean blocks are dropped for free; dirty blocks are written back to
        DRAM, limited by the slower of the SMs' aggregate drain rate and the
        DRAM write bandwidth.
        """
        if reclaimed_sms <= 0:
            return NO_TRANSITION
        capacity = float(reclaimed_sms * self.extended_bytes_per_cache_sm)
        dirty_fraction = (
            outgoing_profile.write_fraction
            if self.dirty_fraction is None
            else self.dirty_fraction
        )
        dirty = capacity * dirty_fraction
        drain_bpc = self.flush_bandwidth_gbps_per_sm / gpu.core_clock_ghz * reclaimed_sms
        bandwidth = min(drain_bpc, self._dram_bytes_per_cycle(gpu))
        return TransitionCost(
            flush_cycles=dirty / bandwidth if dirty else 0.0,
            flushed_dirty_bytes=dirty,
            reclaimed_sms=reclaimed_sms,
        )

    def warmup_cost(self, gpu: GPUConfig, added_sms: int) -> TransitionCost:
        """Cost of warming ``added_sms`` freshly borrowed cache-mode SMs.

        The new capacity starts cold; its working set streams in from DRAM.
        Charging the fill serially (instead of folding it into the phase's
        miss rate) is a deliberate pessimistic bound — the per-phase replay
        measures steady state, so the fill must be accounted somewhere.
        """
        if added_sms <= 0:
            return NO_TRANSITION
        fill = (
            float(added_sms * self.extended_bytes_per_cache_sm)
            * self.warmup_fill_fraction
        )
        return TransitionCost(
            warmup_cycles=fill / self._dram_bytes_per_cycle(gpu) if fill else 0.0,
            warmup_fill_bytes=fill,
            added_sms=added_sms,
        )


def combine_costs(costs: Sequence[TransitionCost]) -> TransitionCost:
    """Sum several transition costs into one phase-boundary charge.

    Cycles are summed (flushes and warm-ups of different residents share the
    DRAM channels, so charging them serially is the same deliberately
    pessimistic bound :meth:`TransitionCostModel.warmup_cost` documents).
    """
    costs = [cost for cost in costs if not cost.is_zero]
    if not costs:
        return NO_TRANSITION
    return TransitionCost(
        flush_cycles=sum(cost.flush_cycles for cost in costs),
        warmup_cycles=sum(cost.warmup_cycles for cost in costs),
        flushed_dirty_bytes=sum(cost.flushed_dirty_bytes for cost in costs),
        warmup_fill_bytes=sum(cost.warmup_fill_bytes for cost in costs),
        reclaimed_sms=sum(cost.reclaimed_sms for cost in costs),
        added_sms=sum(cost.added_sms for cost in costs),
    )


@dataclass(frozen=True)
class ResidentGrant:
    """One resident's share of a phase: compute SMs plus extended-LLC SMs."""

    application: str
    compute_sms: int
    cache_sms: int

    def __post_init__(self) -> None:
        if self.compute_sms <= 0:
            raise ValueError("compute_sms must be positive")
        if self.cache_sms < 0:
            raise ValueError("cache_sms must be non-negative")


@dataclass(frozen=True)
class PhaseDecision:
    """One phase's chosen SM split plus the cost of transitioning into it.

    ``grants`` carries the per-resident breakdown of the split: each
    resident's compute-SM share and its arbitrated slice of the pooled
    extended-LLC capacity, one grant per resident of the phase on every
    phase, single-tenant ones included.  :meth:`CapacityPolicy.plan`
    builds every decision, so the grants cover exactly the phase's
    residents and their cache SMs sum to the split's.
    """

    split: MorpheusOperatingPoint
    transition: TransitionCost
    grants: Tuple[ResidentGrant, ...]


def max_cache_mode_sms(gpu: GPUConfig, morpheus: MorpheusConfig) -> int:
    """The §4.1.3 cap on cache-mode SMs (at most 75 % of the GPU)."""
    return int(gpu.num_sms * morpheus.max_cache_mode_fraction)


def grant_transition(
    model: TransitionCostModel,
    gpu: GPUConfig,
    previous: Mapping[str, int],
    current: Mapping[str, int],
    profiles: Mapping[str, ApplicationProfile],
) -> TransitionCost:
    """Per-resident transition cost between two phases' extended-LLC grants.

    ``previous``/``current`` map each resident application to its granted
    cache-mode SMs.  A resident whose grant shrank — or who departed, which
    orphans its contents outright — flushes the lost SMs' dirty data with
    *its own* write mix; a resident whose grant grew (or who just arrived)
    warms the gained capacity from DRAM.  For single-tenant timelines this
    reproduces the classic accounting exactly: a pure resize flushes/warms
    the delta, and an application change flushes the whole outgoing
    allocation and re-warms the whole incoming one.
    """
    costs: List[TransitionCost] = []
    for application, previous_sms in previous.items():
        shrink = previous_sms - current.get(application, 0)
        if shrink > 0:
            costs.append(model.flush_cost(gpu, shrink, profiles[application]))
    warm_sms = sum(
        max(0, granted - previous.get(application, 0))
        for application, granted in current.items()
    )
    costs.append(model.warmup_cost(gpu, warm_sms))
    return combine_costs(costs)


def _check_shares(phase: ScenarioPhase, pool: int, shares: Mapping[str, int]) -> None:
    """Reject a choice whose shares do not split ``pool`` across ``phase``'s residents."""
    residents = {residency.application for residency in phase.residents}
    if set(shares) != residents:
        raise ValueError(
            f"phase {phase.describe()!r}: per-resident grants {sorted(shares)} "
            f"do not match the residency list {sorted(residents)}"
        )
    if sum(shares.values()) != pool:
        raise ValueError(
            f"phase {phase.describe()!r}: resident cache grants sum to "
            f"{sum(shares.values())} but the split allocates {pool} "
            f"cache-mode SMs"
        )


def _phase_grants(
    phase: ScenarioPhase, shares: Mapping[str, int]
) -> Tuple[ResidentGrant, ...]:
    """Materialize one phase's residency list into grants."""
    return tuple(
        ResidentGrant(
            application=residency.application,
            compute_sms=residency.compute_sm_demand,
            cache_sms=shares[residency.application],
        )
        for residency in phase.residents
    )


#: A policy's per-phase choice: ``(previous pool, previous shares, phase)``
#: to the phase's ``(pool, shares)``, where ``shares`` maps each resident
#: to its granted cache-mode SMs.
Choice = Callable[[int, Dict[str, int], ScenarioPhase], Tuple[int, Dict[str, int]]]


class CapacityPolicy(abc.ABC):
    """Chooses a (compute, cache, gated) split for every phase of a timeline.

    A policy supplies only its per-phase choice of pool and shares
    (:meth:`chooser`); :meth:`plan` is the one planning loop that checks
    those choices and turns them into transitions and
    :class:`PhaseDecision` objects.  Subclasses implement :meth:`chooser`
    and do not override :meth:`plan`.
    """

    name: str = "policy"

    @abc.abstractmethod
    def chooser(
        self,
        scenario: ScenarioSpec,
        gpu: GPUConfig,
        morpheus: MorpheusConfig,
        profiles: Mapping[str, ApplicationProfile],
    ) -> Choice:
        """This policy's per-phase :data:`Choice` over ``scenario``.

        The choice must be a function of its arguments alone, and must not
        change the ``previous shares`` dict it is given.
        """

    def plan(
        self,
        scenario: ScenarioSpec,
        gpu: GPUConfig,
        morpheus: Optional[MorpheusConfig],
        profiles: Mapping[str, ApplicationProfile],
        transition_model: TransitionCostModel,
    ) -> List[PhaseDecision]:
        """One :class:`PhaseDecision` per scenario phase, in timeline order.

        Each decision is a function of the previous phase's pool and shares
        and of this phase's residents, so it is memoized on exactly those:
        the shares in their insertion order (:func:`grant_transition` sums
        its flush terms in that order) and the residents in theirs.  A
        repeated state returns the same :class:`PhaseDecision` object, and
        a timeline of thousands of phases makes only as many choices as it
        has distinct states.  Entering the first phase is free.

        Each distinct state is checked once, before its decision is built:
        the phase must fit the GPU, and the chooser's shares must grant
        exactly the phase's residents and sum to its pool.  Each of these
        errors names the phase.  ``morpheus`` is ``None`` for the baselines.
        """
        choose = self.chooser(scenario, gpu, morpheus, profiles)
        memo: Dict[tuple, Tuple[PhaseDecision, int, Dict[str, int], tuple]] = {}
        decisions: List[PhaseDecision] = []
        previous_pool = 0
        previous_shares: Dict[str, int] = {}
        previous_items: tuple = ()
        for phase in scenario.phases:
            key = (previous_pool, previous_items, phase.residents)
            entry = memo.get(key)
            if entry is None:
                demand = phase.total_compute_sm_demand
                if demand > gpu.num_sms:
                    raise ValueError(
                        f"phase {phase.describe()!r} demands {demand} SMs but "
                        f"the GPU has {gpu.num_sms}"
                    )
                pool, shares = choose(previous_pool, previous_shares, phase)
                _check_shares(phase, pool, shares)
                transition = (
                    grant_transition(
                        transition_model, gpu, previous_shares, shares, profiles
                    )
                    if previous_shares
                    else NO_TRANSITION
                )
                decision = PhaseDecision(
                    split=self._split(gpu, demand, pool),
                    transition=transition,
                    grants=_phase_grants(phase, shares),
                )
                entry = memo[key] = (decision, pool, shares, tuple(shares.items()))
            decision, previous_pool, previous_shares, previous_items = entry
            decisions.append(decision)
        return decisions

    def _split(
        self, gpu: GPUConfig, compute_sms: int, cache_sms: int
    ) -> MorpheusOperatingPoint:
        if compute_sms + cache_sms > gpu.num_sms:
            raise ValueError(
                f"split exceeds the GPU ({compute_sms} + {cache_sms} > {gpu.num_sms})"
            )
        return MorpheusOperatingPoint(
            num_compute_sms=compute_sms,
            num_cache_sms=cache_sms,
            num_gated_sms=gpu.num_sms - compute_sms - cache_sms,
        )


class _BaselinePolicy(CapacityPolicy):
    """BL or IBL under a timeline: no idle SM ever enters cache mode.

    Every phase gets a pool of 0 and each resident 0 cache SMs, so no phase
    boundary costs anything.  BL keeps the idle SMs active
    (``"all-active"``); IBL power-gates them (``"power-gate"``).  The
    scenario engine picks this policy from the system name; callers do not
    pass it.
    """

    def __init__(self, gate_idle: bool) -> None:
        self.gate_idle = gate_idle
        self.name = "power-gate" if gate_idle else "all-active"

    def chooser(
        self,
        scenario: ScenarioSpec,
        gpu: GPUConfig,
        morpheus: Optional[MorpheusConfig],
        profiles: Mapping[str, ApplicationProfile],
    ) -> Choice:
        def choose(previous_pool, previous_shares, phase):
            return 0, {residency.application: 0 for residency in phase.residents}

        return choose

    def _split(
        self, gpu: GPUConfig, compute_sms: int, cache_sms: int
    ) -> MorpheusOperatingPoint:
        return MorpheusOperatingPoint(
            num_compute_sms=compute_sms,
            num_cache_sms=cache_sms,
            num_gated_sms=gpu.num_sms - compute_sms - cache_sms if self.gate_idle else 0,
        )


class FixedSplitPolicy(CapacityPolicy):
    """One static split sized for the timeline's worst-case compute demand.

    The cache allocation is the largest that fits under *every* phase's
    demand (and the cache-mode cap), so the split never changes and resizing
    costs are never paid — the scenario generalization of the repo's offline
    per-application operating point.  The price is wasted idle capacity:
    low-demand phases gate SMs the dynamic manager would borrow.

    Application changes still cost: the outgoing application's extended-LLC
    contents are physically orphaned whatever the policy, so the static
    split pays the same flush + re-warm at an ownership change as the
    dynamic manager would for an unchanged allocation — keeping
    static-vs-dynamic comparisons about *capacity adaptation*, not about
    asymmetric accounting.

    Under a co-run phase the static pool is arbitrated across the residents
    (see :func:`arbitrate_extended_llc`); grant ownership changes between
    phases — a resident departing, arriving or seeing its slice move — pay
    the same per-resident flush/warm-up as they would under the dynamic
    manager.

    Args:
        arbitration: How the pool is split across a co-run phase's
            residents (``"proportional"`` or ``"sensitivity"``).
    """

    name = "static"

    def __init__(self, arbitration: str = "proportional") -> None:
        self.arbitration = _validate_arbitration(arbitration)

    def chooser(
        self,
        scenario: ScenarioSpec,
        gpu: GPUConfig,
        morpheus: MorpheusConfig,
        profiles: Mapping[str, ApplicationProfile],
    ) -> Choice:
        worst_idle = gpu.num_sms - scenario.max_compute_sm_demand
        pool = max(0, min(worst_idle, max_cache_mode_sms(gpu, morpheus)))

        def choose(previous_pool, previous_shares, phase):
            return pool, arbitrate_extended_llc(
                pool, phase.residents, profiles, self.arbitration
            )

        return choose


class DynamicCapacityManager(CapacityPolicy):
    """Tracks idle capacity phase by phase, paying for every reconfiguration.

    Each phase's split is derived from the previous phase's: the manager
    targets the phase's full idle capacity (up to the cache-mode cap), hands
    SMs back when compute demand rises (charging the extended-LLC flush),
    re-borrows them when demand falls (charging the warm-up), and flushes +
    re-warms everything when the running application changes.  Entering the
    first phase is free — the initial split is configured before the
    timeline starts, like the static policies' offline setup.

    Under a co-run phase the pooled allocation is arbitrated across the
    residents (see :func:`arbitrate_extended_llc`) and transitions are
    accounted **per resident**: a resident whose grant shrinks (or who
    departs) flushes exactly the lost SMs once with its own write mix, a
    resident whose grant grows (or who arrives) warms the gained capacity.

    Args:
        hysteresis_sms: Pooled-allocation changes of at most this many SMs
            are skipped (the previous pool is kept) when the previous
            allocation still fits the new phase's idle capacity — damping
            reactions to small demand wiggles that would not pay for their
            own transition cost.
        arbitration: How the pool is split across a co-run phase's
            residents (``"proportional"`` or ``"sensitivity"``).
    """

    name = "dynamic"

    def __init__(
        self, hysteresis_sms: int = 0, arbitration: str = "proportional"
    ) -> None:
        _check_sm_count("hysteresis_sms", hysteresis_sms)
        self.hysteresis_sms = hysteresis_sms
        self.arbitration = _validate_arbitration(arbitration)

    def chooser(
        self,
        scenario: ScenarioSpec,
        gpu: GPUConfig,
        morpheus: MorpheusConfig,
        profiles: Mapping[str, ApplicationProfile],
    ) -> Choice:
        cap = max_cache_mode_sms(gpu, morpheus)

        def choose(previous_pool, previous_shares, phase):
            idle = gpu.num_sms - phase.total_compute_sm_demand
            target = max(0, min(idle, cap))
            pool = target
            if (
                previous_pool <= idle
                and abs(target - previous_pool) <= self.hysteresis_sms
            ):
                pool = previous_pool
            shares = arbitrate_extended_llc(
                pool, phase.residents, profiles, self.arbitration
            )
            if (
                pool == previous_pool
                and set(shares) == set(previous_shares)
                and all(
                    abs(shares[name] - previous_shares[name]) <= self.hysteresis_sms
                    for name in shares
                )
            ):
                # Damp per-resident wiggles too: when the pool is unchanged,
                # the residents are the same and every slice moved by at
                # most the hysteresis, keep the previous slices — otherwise
                # a small demand redistribution inside a co-run phase would
                # pay the very transition costs hysteresis exists to skip.
                # (With hysteresis 0 this only keeps slices that are
                # already identical.)
                shares = dict(previous_shares)
            return pool, shares

        return choose
