"""The 17 evaluated applications (Table 2) as parametric workload models.

The paper evaluates 14 memory-bound and 3 compute-bound applications from
Rodinia, Parboil, Pannotia and ISPASS.  We cannot run the CUDA binaries, so
each application is modelled by an :class:`ApplicationProfile` that captures
the properties the evaluation depends on:

* how memory-intensive the instruction stream is (``memory_fraction``),
* how well the per-SM L1 filters it (``l1_hit_rate``),
* the footprint seen by the LLC (a shared component plus a per-SM component
  that grows with the number of compute SMs — the per-SM component is what
  makes kmeans/histo/mri-gri/spmv/lbm *lose* performance beyond a certain SM
  count in Figure 1),
* the locality structure of that footprint (hot-set fraction/probability and
  a streaming fraction with no temporal reuse — the streaming fraction is the
  traffic no LLC capacity can capture, which bounds how much a larger LLC can
  help in Figure 2),
* the write/atomic mix, and
* how compressible its cache blocks are (drives the BDI gain in
  Morpheus-Compression).

Parameter values are calibrated against the paper's figures:

* the **saturation point** of each application's SM-scaling curve (Figure 1)
  is set through ``compute_efficiency`` and ``memory_fraction`` (they place
  the crossover between the compute roof and the DRAM bandwidth roof), and
* the **larger-LLC sensitivity** (Figure 2) is set through the footprint and
  the streaming fraction (capacity-insensitive traffic).

The five applications whose performance *drops* beyond a certain SM count
(kmeans, histo, mri-gri, spmv, lbm) get small shared footprints plus per-SM
footprints sized so the aggregate working set overflows the 5 MiB LLC near
the SM count where the paper's IBL configuration peaks (Table 3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

MIB = 1024 * 1024
KIB = 1024


class WorkloadClass(enum.Enum):
    """Memory-bound vs compute-bound classification (Table 2)."""

    MEMORY_BOUND = "memory-bound"
    COMPUTE_BOUND = "compute-bound"


@dataclass(frozen=True)
class ApplicationProfile:
    """Parametric model of one evaluated application.

    Attributes:
        name: Short name used throughout the paper (e.g. ``"kmeans"``).
        suite: Benchmark suite the application comes from.
        workload_class: Memory- or compute-bound.
        memory_fraction: Fraction of executed instructions that access memory.
        l1_hit_rate: Hit rate of the per-SM L1 at the baseline 128 KiB size.
        compute_efficiency: Fraction of peak per-SM issue rate achieved when
            the application is not memory-bound (captures divergence and
            dependency stalls).
        shared_footprint_mib: LLC-level footprint shared by all SMs (MiB).
        per_sm_footprint_kib: Additional LLC-level footprint contributed by
            each active compute SM (KiB); drives cache thrashing as the SM
            count grows.
        hot_fraction: Fraction of the footprint that is "hot".
        hot_probability: Probability that a reuse access targets the hot
            region (equal to ``hot_fraction`` for a uniform footprint).
        streaming_fraction: Fraction of accesses that stream through memory
            with no temporal reuse (insensitive to LLC capacity).
        write_fraction: Fraction of LLC accesses that are writes.
        atomic_fraction: Fraction of LLC accesses that are atomics.
        compressible_high: Fraction of blocks compressible 4x under BDI.
        compressible_low: Fraction of blocks compressible 2x under BDI.
        instructions: Nominal dynamic instruction count (used to convert IPC
            into execution time; capped at 2 billion as in the paper).
    """

    name: str
    suite: str
    workload_class: WorkloadClass
    memory_fraction: float
    l1_hit_rate: float
    compute_efficiency: float
    shared_footprint_mib: float
    per_sm_footprint_kib: float
    hot_fraction: float
    hot_probability: float
    streaming_fraction: float
    write_fraction: float = 0.2
    atomic_fraction: float = 0.0
    compressible_high: float = 0.3
    compressible_low: float = 0.3
    instructions: int = 2_000_000_000

    def __post_init__(self) -> None:
        for field_name in (
            "memory_fraction",
            "l1_hit_rate",
            "compute_efficiency",
            "hot_fraction",
            "hot_probability",
            "streaming_fraction",
            "write_fraction",
            "atomic_fraction",
            "compressible_high",
            "compressible_low",
        ):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1], got {value}")
        if self.shared_footprint_mib <= 0:
            raise ValueError("shared_footprint_mib must be positive")
        if self.per_sm_footprint_kib < 0:
            raise ValueError("per_sm_footprint_kib must be non-negative")
        if self.compressible_high + self.compressible_low > 1.0 + 1e-9:
            raise ValueError("compressible fractions must not exceed 1 in total")
        if self.instructions <= 0:
            raise ValueError("instructions must be positive")

    # -- derived quantities ----------------------------------------------------

    @property
    def l1_apki(self) -> float:
        """L1 accesses per kilo-instruction."""
        return self.memory_fraction * 1000.0

    def llc_apki(self, l1_hit_rate: float | None = None) -> float:
        """LLC accesses per kilo-instruction given an (optionally adjusted) L1 hit rate."""
        hit = self.l1_hit_rate if l1_hit_rate is None else l1_hit_rate
        return self.l1_apki * (1.0 - hit)

    def footprint_bytes(self, num_compute_sms: int) -> int:
        """LLC-level footprint when ``num_compute_sms`` SMs run the application."""
        if num_compute_sms <= 0:
            raise ValueError("num_compute_sms must be positive")
        total = self.shared_footprint_mib * MIB + self.per_sm_footprint_kib * KIB * num_compute_sms
        return int(total)

    def l1_hit_rate_for_capacity(self, l1_bytes: int, baseline_bytes: int = 128 * KIB) -> float:
        """L1 hit rate when the L1 capacity changes (Unified-SM-Mem baseline).

        Uses a shallow power-law miss-rate model (miss ~ capacity^-0.12): GPU
        L1 misses are dominated by streaming and inter-SM shared data, so the
        extra per-SM capacity only recovers a modest fraction of them.
        """
        if l1_bytes <= 0 or baseline_bytes <= 0:
            raise ValueError("capacities must be positive")
        ratio = (baseline_bytes / l1_bytes) ** 0.12
        miss = (1.0 - self.l1_hit_rate) * ratio
        return max(0.0, min(1.0, 1.0 - miss))


def _app(**kwargs) -> ApplicationProfile:
    return ApplicationProfile(**kwargs)


#: The nine memory-bound applications whose performance saturates with more
#: SMs (Figure 1): large shared footprints, no per-SM growth.
_SATURATING: List[ApplicationProfile] = [
    _app(
        name="p-bfs", suite="Parboil", workload_class=WorkloadClass.MEMORY_BOUND,
        memory_fraction=0.38, l1_hit_rate=0.12, compute_efficiency=0.27,
        shared_footprint_mib=28.0, per_sm_footprint_kib=0.0,
        hot_fraction=0.30, hot_probability=0.30, streaming_fraction=0.65,
        write_fraction=0.18, atomic_fraction=0.02,
        compressible_high=0.35, compressible_low=0.30,
    ),
    _app(
        name="cfd", suite="Rodinia", workload_class=WorkloadClass.MEMORY_BOUND,
        memory_fraction=0.26, l1_hit_rate=0.30, compute_efficiency=0.24,
        shared_footprint_mib=28.0, per_sm_footprint_kib=0.0,
        hot_fraction=0.30, hot_probability=0.30, streaming_fraction=0.51,
        write_fraction=0.25, compressible_high=0.25, compressible_low=0.35,
    ),
    _app(
        name="dwt2d", suite="Rodinia", workload_class=WorkloadClass.MEMORY_BOUND,
        memory_fraction=0.26, l1_hit_rate=0.35, compute_efficiency=0.23,
        shared_footprint_mib=28.0, per_sm_footprint_kib=0.0,
        hot_fraction=0.30, hot_probability=0.30, streaming_fraction=0.47,
        write_fraction=0.30, compressible_high=0.40, compressible_low=0.30,
    ),
    _app(
        name="stencil", suite="Parboil", workload_class=WorkloadClass.MEMORY_BOUND,
        memory_fraction=0.40, l1_hit_rate=0.28, compute_efficiency=0.30,
        shared_footprint_mib=28.0, per_sm_footprint_kib=0.0,
        hot_fraction=0.30, hot_probability=0.30, streaming_fraction=0.70,
        write_fraction=0.30, compressible_high=0.45, compressible_low=0.30,
    ),
    _app(
        name="r-bfs", suite="Rodinia", workload_class=WorkloadClass.MEMORY_BOUND,
        memory_fraction=0.18, l1_hit_rate=0.25, compute_efficiency=0.23,
        shared_footprint_mib=28.0, per_sm_footprint_kib=0.0,
        hot_fraction=0.30, hot_probability=0.30, streaming_fraction=0.44,
        write_fraction=0.15, atomic_fraction=0.03,
        compressible_high=0.35, compressible_low=0.30,
    ),
    _app(
        name="bprob", suite="Rodinia", workload_class=WorkloadClass.MEMORY_BOUND,
        memory_fraction=0.115, l1_hit_rate=0.40, compute_efficiency=0.30,
        shared_footprint_mib=28.0, per_sm_footprint_kib=0.0,
        hot_fraction=0.30, hot_probability=0.30, streaming_fraction=0.44,
        write_fraction=0.30, compressible_high=0.40, compressible_low=0.35,
    ),
    _app(
        name="sgem", suite="Parboil", workload_class=WorkloadClass.MEMORY_BOUND,
        memory_fraction=0.105, l1_hit_rate=0.45, compute_efficiency=0.35,
        shared_footprint_mib=28.0, per_sm_footprint_kib=0.0,
        hot_fraction=0.30, hot_probability=0.30, streaming_fraction=0.51,
        write_fraction=0.12, compressible_high=0.30, compressible_low=0.40,
    ),
    _app(
        name="nw", suite="Rodinia", workload_class=WorkloadClass.MEMORY_BOUND,
        memory_fraction=0.36, l1_hit_rate=0.20, compute_efficiency=0.24,
        shared_footprint_mib=28.0, per_sm_footprint_kib=0.0,
        hot_fraction=0.30, hot_probability=0.30, streaming_fraction=0.60,
        write_fraction=0.32, compressible_high=0.30, compressible_low=0.30,
    ),
    _app(
        name="page-r", suite="Pannotia", workload_class=WorkloadClass.MEMORY_BOUND,
        memory_fraction=0.24, l1_hit_rate=0.28, compute_efficiency=0.23,
        shared_footprint_mib=28.0, per_sm_footprint_kib=0.0,
        hot_fraction=0.30, hot_probability=0.30, streaming_fraction=0.41,
        write_fraction=0.20, atomic_fraction=0.05,
        compressible_high=0.30, compressible_low=0.30,
    ),
]

#: The five memory-bound applications whose performance drops beyond a certain
#: SM count (Figure 1): small shared footprints plus per-SM footprints that
#: overflow the LLC as the SM count grows.
_THRASHING: List[ApplicationProfile] = [
    _app(
        name="kmeans", suite="Rodinia", workload_class=WorkloadClass.MEMORY_BOUND,
        memory_fraction=0.42, l1_hit_rate=0.30, compute_efficiency=0.40,
        shared_footprint_mib=2.5, per_sm_footprint_kib=180.0,
        hot_fraction=0.30, hot_probability=0.30, streaming_fraction=0.18,
        write_fraction=0.22, compressible_high=0.40, compressible_low=0.35,
    ),
    _app(
        name="histo", suite="Parboil", workload_class=WorkloadClass.MEMORY_BOUND,
        memory_fraction=0.21, l1_hit_rate=0.32, compute_efficiency=0.30,
        shared_footprint_mib=2.0, per_sm_footprint_kib=95.0,
        hot_fraction=0.30, hot_probability=0.30, streaming_fraction=0.30,
        write_fraction=0.35, atomic_fraction=0.08,
        compressible_high=0.35, compressible_low=0.30,
    ),
    _app(
        name="mri-gri", suite="Parboil", workload_class=WorkloadClass.MEMORY_BOUND,
        memory_fraction=0.31, l1_hit_rate=0.34, compute_efficiency=0.35,
        shared_footprint_mib=2.0, per_sm_footprint_kib=145.0,
        hot_fraction=0.30, hot_probability=0.30, streaming_fraction=0.28,
        write_fraction=0.25, atomic_fraction=0.04,
        compressible_high=0.35, compressible_low=0.35,
    ),
    _app(
        name="spmv", suite="Parboil", workload_class=WorkloadClass.MEMORY_BOUND,
        memory_fraction=0.19, l1_hit_rate=0.26, compute_efficiency=0.40,
        shared_footprint_mib=2.0, per_sm_footprint_kib=115.0,
        hot_fraction=0.30, hot_probability=0.30, streaming_fraction=0.35,
        write_fraction=0.12, compressible_high=0.25, compressible_low=0.35,
    ),
    _app(
        name="lbm", suite="Parboil", workload_class=WorkloadClass.MEMORY_BOUND,
        memory_fraction=0.24, l1_hit_rate=0.24, compute_efficiency=0.32,
        shared_footprint_mib=2.0, per_sm_footprint_kib=150.0,
        hot_fraction=0.30, hot_probability=0.30, streaming_fraction=0.40,
        write_fraction=0.40, compressible_high=0.30, compressible_low=0.35,
    ),
]

#: The 3 compute-bound applications: small footprints, very high L1 hit rates,
#: performance scales (nearly) linearly with the SM count.
_COMPUTE_BOUND: List[ApplicationProfile] = [
    _app(
        name="lib", suite="ISPASS", workload_class=WorkloadClass.COMPUTE_BOUND,
        memory_fraction=0.08, l1_hit_rate=0.80, compute_efficiency=0.40,
        shared_footprint_mib=2.0, per_sm_footprint_kib=16.0,
        hot_fraction=0.50, hot_probability=0.90, streaming_fraction=0.05,
        write_fraction=0.10, compressible_high=0.40, compressible_low=0.30,
    ),
    _app(
        name="hotsp", suite="Rodinia", workload_class=WorkloadClass.COMPUTE_BOUND,
        memory_fraction=0.10, l1_hit_rate=0.85, compute_efficiency=0.80,
        shared_footprint_mib=3.0, per_sm_footprint_kib=16.0,
        hot_fraction=0.50, hot_probability=0.90, streaming_fraction=0.05,
        write_fraction=0.20, compressible_high=0.45, compressible_low=0.30,
    ),
    _app(
        name="mri-q", suite="Parboil", workload_class=WorkloadClass.COMPUTE_BOUND,
        memory_fraction=0.06, l1_hit_rate=0.88, compute_efficiency=0.85,
        shared_footprint_mib=1.5, per_sm_footprint_kib=8.0,
        hot_fraction=0.60, hot_probability=0.92, streaming_fraction=0.04,
        write_fraction=0.08, compressible_high=0.40, compressible_low=0.35,
    ),
]

MEMORY_BOUND_APPS: List[str] = [profile.name for profile in (*_SATURATING, *_THRASHING)]
COMPUTE_BOUND_APPS: List[str] = [profile.name for profile in _COMPUTE_BOUND]

APPLICATIONS: Dict[str, ApplicationProfile] = {
    profile.name: profile for profile in (*_SATURATING, *_THRASHING, *_COMPUTE_BOUND)
}

#: Applications whose Figure 1 curve peaks and then declines, and the SM count
#: at which the paper's IBL configuration peaks (Table 3, row "IBL").
THRASHING_APPS: Dict[str, int] = {
    "kmeans": 24,
    "histo": 53,
    "mri-gri": 34,
    "spmv": 42,
    "lbm": 34,
}


def get_application(name: str) -> ApplicationProfile:
    """Look up an application profile by its paper name."""
    try:
        return APPLICATIONS[name]
    except KeyError:
        valid = ", ".join(sorted(APPLICATIONS))
        raise KeyError(f"unknown application {name!r}; expected one of: {valid}") from None
