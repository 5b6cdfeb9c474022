"""Crossbar building blocks used by the interconnect model.

GPUs connect SMs to LLC/memory partitions through a crossbar-like network.
The Morpheus evaluation cares about three interconnect effects:

* the baseline one-way traversal latency between an SM and an LLC partition,
* the *extra* round trip that extended-LLC requests pay (Morpheus controller
  -> cache-mode SM -> Morpheus controller, Figure 5), and
* congestion: Morpheus roughly doubles NoC load (§7.4), inflating average
  latency by a few percent without saturating the network.

:class:`CrossbarLink` holds the state of one direction of one port: its
bandwidth, its unloaded latency and its bandwidth account.
:class:`~repro.interconnect.network.InterconnectNetwork` gives each LLC
partition's port a request link and a response link, and its ``traverse``
sends a request and its response over them in one call: it is the only
code that moves a link's busy time and byte count.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class CrossbarLink:
    """A single directed link with finite bandwidth.

    Args:
        bytes_per_cycle: Peak payload bandwidth of the link.
        base_latency_cycles: Unloaded traversal latency.
    """

    bytes_per_cycle: float
    base_latency_cycles: float
    #: When the link finishes serializing the payloads sent so far.
    busy_until_cycle: float = 0.0
    bytes_transferred: int = 0

    def __post_init__(self) -> None:
        if self.bytes_per_cycle <= 0:
            raise ValueError("bytes_per_cycle must be positive")
        if self.base_latency_cycles < 0:
            raise ValueError("base_latency_cycles must be non-negative")
