"""Crossbar building blocks used by the interconnect model.

GPUs connect SMs to LLC/memory partitions through a crossbar-like network.
The Morpheus evaluation cares about three interconnect effects:

* the baseline one-way traversal latency between an SM and an LLC partition,
* the *extra* round trip that extended-LLC requests pay (Morpheus controller
  -> cache-mode SM -> Morpheus controller, Figure 5), and
* congestion: Morpheus roughly doubles NoC load (§7.4), inflating average
  latency by a few percent without saturating the network.

:class:`CrossbarLink` models one direction of one port with a bandwidth
account; :class:`~repro.interconnect.network.InterconnectNetwork` gives each
LLC partition's port a request link and a response link.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CrossbarLink:
    """A single directed link with finite bandwidth.

    Args:
        bytes_per_cycle: Peak payload bandwidth of the link.
        base_latency_cycles: Unloaded traversal latency.
    """

    bytes_per_cycle: float
    base_latency_cycles: float
    busy_until_cycle: float = 0.0
    bytes_transferred: int = 0
    flits_transferred: int = 0

    def __post_init__(self) -> None:
        if self.bytes_per_cycle <= 0:
            raise ValueError("bytes_per_cycle must be positive")
        if self.base_latency_cycles < 0:
            raise ValueError("base_latency_cycles must be non-negative")

    def transfer(self, size_bytes: int, now_cycle: float) -> float:
        """Send ``size_bytes`` over the link starting no earlier than ``now_cycle``.

        Returns the total latency (queueing + traversal + serialization).
        """
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        # max(now_cycle, busy), spelled out: the builtin costs several times
        # more than the comparison, and this runs twice per NoC traversal.
        busy = self.busy_until_cycle
        start = busy if busy > now_cycle else now_cycle
        queue_delay = start - now_cycle
        serialization = size_bytes / self.bytes_per_cycle
        self.busy_until_cycle = start + serialization
        self.bytes_transferred += size_bytes
        self.flits_transferred += 1
        return queue_delay + self.base_latency_cycles + serialization

    def utilization(self, elapsed_cycles: float) -> float:
        """Fraction of link bandwidth consumed over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.bytes_transferred / (self.bytes_per_cycle * elapsed_cycles))

    def reset(self) -> None:
        """Clear link occupancy and counters."""
        self.busy_until_cycle = 0.0
        self.bytes_transferred = 0
        self.flits_transferred = 0
