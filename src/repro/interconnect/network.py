"""The SM <-> LLC-partition interconnection network.

The network connects every SM to every LLC partition.  We model it as one
port per LLC partition (the partition side is the bandwidth bottleneck in
GPUs): a request link and a response link, each a
:class:`~repro.interconnect.crossbar.CrossbarLink`, plus a load-dependent
latency term, and we track the statistics the paper reports in §7.4:
injection rate, throughput, and average latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.interconnect.crossbar import CrossbarLink


@dataclass(frozen=True)
class InterconnectConfig:
    """Interconnect parameters.

    The one-way latency default (~60 cycles, i.e. ~40 ns at 1.44 GHz)
    reflects the gap between the raw LLC array latency and the SM-observed
    LLC latency reported for Ampere-class GPUs.
    """

    num_partitions: int = 10
    one_way_latency_cycles: float = 60.0
    bytes_per_cycle_per_port: float = 208.0
    congestion_knee: float = 0.7
    max_congestion_penalty: float = 0.5

    def __post_init__(self) -> None:
        if self.num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if self.one_way_latency_cycles < 0:
            raise ValueError("one_way_latency_cycles must be non-negative")
        if self.bytes_per_cycle_per_port <= 0:
            raise ValueError("bytes_per_cycle_per_port must be positive")
        if not 0.0 < self.congestion_knee <= 1.0:
            raise ValueError("congestion_knee must be in (0, 1]")
        if self.max_congestion_penalty < 0:
            raise ValueError("max_congestion_penalty must be non-negative")


@dataclass
class NetworkStats:
    """Aggregate interconnect statistics (the §7.4 metrics).

    The bytes each port carried are its links' ``bytes_transferred``
    (:meth:`InterconnectNetwork.total_load_bytes`).
    """

    total_latency_cycles: float = 0.0
    traversals: int = 0

    @property
    def flits_injected(self) -> int:
        """Flits injected: each traversal sends a request and a response."""
        return 2 * self.traversals

    @property
    def average_latency_cycles(self) -> float:
        """Average per-traversal latency (0.0 when nothing was sent)."""
        if self.traversals == 0:
            return 0.0
        return self.total_latency_cycles / self.traversals


class InterconnectNetwork:
    """Crossbar-style network between SMs and LLC partitions.

    The same network also carries Morpheus's extended-LLC traffic (controller
    to cache-mode SM and back), so Morpheus traversals simply call
    :meth:`traverse` one extra round trip.
    """

    def __init__(self, config: InterconnectConfig | None = None) -> None:
        self.config = config or InterconnectConfig()
        bytes_per_cycle = self.config.bytes_per_cycle_per_port
        latency = self.config.one_way_latency_cycles
        #: ``(request link, response link)`` of each partition's port.
        self.ports: List[Tuple[CrossbarLink, CrossbarLink]] = [
            (CrossbarLink(bytes_per_cycle, latency), CrossbarLink(bytes_per_cycle, latency))
            for _ in range(self.config.num_partitions)
        ]
        self.stats = NetworkStats()
        self._num_ports = len(self.ports)
        self._bytes_per_cycle = bytes_per_cycle
        self._knee = self.config.congestion_knee
        self._knee_span = 1.0 - self._knee
        self._max_penalty = self.config.max_congestion_penalty

    def traverse(
        self,
        partition_id: int,
        size_bytes: int,
        now_cycle: float,
        response_bytes: int = 128,
        elapsed_cycles: float = 0.0,
    ) -> float:
        """Send a request to ``partition_id`` and its response back.

        Returns the combined round-trip latency in cycles.  ``elapsed_cycles``
        (total simulated time so far) feeds the congestion model: when the
        port's request link has carried more than ``congestion_knee`` of its
        capacity over ``elapsed_cycles``, both directions' latencies are
        scaled by ``1 + (utilization - knee) / (1 - knee) * max_congestion_penalty``.
        """
        if not 0 <= partition_id < self._num_ports:
            raise ValueError(f"partition_id {partition_id} out of range")
        request_link, response_link = self.ports[partition_id]
        penalty = 1.0
        if elapsed_cycles > 0:
            utilization = request_link.bytes_transferred / (
                self._bytes_per_cycle * elapsed_cycles
            )
            if utilization > 1.0:
                utilization = 1.0
            if utilization > self._knee:
                over = (utilization - self._knee) / self._knee_span
                penalty = 1.0 + over * self._max_penalty
        # Each link queues a payload behind the ones it is still serializing,
        # then adds its unloaded latency and the payload's serialization.
        # max(arrival, busy) is spelled out: the builtin costs several times
        # more than the comparison.
        busy = request_link.busy_until_cycle
        start = busy if busy > now_cycle else now_cycle
        serialization = size_bytes / request_link.bytes_per_cycle
        request_link.busy_until_cycle = start + serialization
        request_link.bytes_transferred += size_bytes
        request_latency = (
            start - now_cycle + request_link.base_latency_cycles + serialization
        ) * penalty

        arrival = now_cycle + request_latency
        busy = response_link.busy_until_cycle
        start = busy if busy > arrival else arrival
        serialization = response_bytes / response_link.bytes_per_cycle
        response_link.busy_until_cycle = start + serialization
        response_link.bytes_transferred += response_bytes
        response_latency = (
            start - arrival + response_link.base_latency_cycles + serialization
        ) * penalty

        total = request_latency + response_latency
        stats = self.stats
        stats.total_latency_cycles += total
        stats.traversals += 1
        return total

    def total_load_bytes(self) -> int:
        """Total payload carried by the network in both directions."""
        return sum(
            request_link.bytes_transferred + response_link.bytes_transferred
            for request_link, response_link in self.ports
        )
