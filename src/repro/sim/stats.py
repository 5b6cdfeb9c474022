"""Simulation result records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.energy.model import EnergyBreakdown


@dataclass
class SimulationStats:
    """The full result of simulating one application on one system configuration.

    Attributes mirror the metrics the paper reports: IPC and execution time
    (Fig. 12 top), performance/watt (Fig. 12 bottom), LLC hit rates and MPKI
    (§7.4), interconnect load and latency (§7.4), off-chip traffic, and the
    bottleneck that limited performance.
    """

    application: str
    system: str
    num_compute_sms: int
    num_cache_sms: int = 0
    num_gated_sms: int = 0

    ipc: float = 0.0
    execution_cycles: float = 0.0
    instructions: float = 0.0

    l1_hit_rate: float = 0.0
    llc_hit_rate: float = 0.0
    conventional_llc_hit_rate: float = 0.0
    extended_llc_hit_rate: float = 0.0
    extended_fraction: float = 0.0
    llc_mpki: float = 0.0
    llc_apki: float = 0.0

    dram_accesses_per_ki: float = 0.0
    dram_bytes: float = 0.0
    dram_bandwidth_utilization: float = 0.0
    llc_throughput_gbps: float = 0.0
    extended_llc_throughput_gbps: float = 0.0

    noc_bytes: float = 0.0
    noc_injection_bytes_per_cycle: float = 0.0
    noc_average_latency_cycles: float = 0.0

    average_memory_latency_cycles: float = 0.0
    bottleneck: str = "compute"
    limits: Dict[str, float] = field(default_factory=dict)

    predictor_false_positive_rate: float = 0.0
    predictor_false_negatives: int = 0
    predicted_miss_fraction: float = 0.0

    energy: Optional[EnergyBreakdown] = None
    average_power_watts: float = 0.0
    performance_per_watt: float = 0.0

    def normalized_execution_time(self, baseline: "SimulationStats") -> float:
        """Execution time normalized to ``baseline`` (Fig. 12 top, lower is better)."""
        if baseline.execution_cycles <= 0:
            return 0.0
        return self.execution_cycles / baseline.execution_cycles

    def normalized_perf_per_watt(self, baseline: "SimulationStats") -> float:
        """Performance/watt normalized to ``baseline`` (Fig. 12 bottom, higher is better)."""
        if baseline.performance_per_watt <= 0:
            return 0.0
        return self.performance_per_watt / baseline.performance_per_watt

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.application:>8s} on {self.system:<22s} "
            f"IPC={self.ipc:7.2f}  LLC hit={self.llc_hit_rate:5.1%}  "
            f"MPKI={self.llc_mpki:6.1f}  bottleneck={self.bottleneck}"
        )
