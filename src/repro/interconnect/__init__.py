"""On-chip interconnection network between SMs and LLC partitions."""

from repro.interconnect.crossbar import CrossbarLink
from repro.interconnect.network import InterconnectConfig, InterconnectNetwork, NetworkStats

__all__ = [
    "CrossbarLink",
    "InterconnectConfig",
    "InterconnectNetwork",
    "NetworkStats",
]
