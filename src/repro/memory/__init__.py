"""Memory-hierarchy substrate: requests, the banked LLC and DRAM.

This subpackage provides the building blocks of the baseline GPU memory
hierarchy that Morpheus extends:

* :mod:`repro.memory.request` -- the memory request record that flows
  through every component of the simulated hierarchy.
* :mod:`repro.memory.address_mapping` -- static address interleaving across
  LLC partitions and DRAM channels.
* :mod:`repro.memory.llc` -- the banked conventional last level cache: one
  set-associative LRU slice per partition.
* :mod:`repro.memory.dram` -- a GDDR6X-style off-chip DRAM model.
"""

from repro.memory.address_mapping import AddressMapping
from repro.memory.dram import DRAMConfig, DRAMModel
from repro.memory.llc import BankedLLC, CacheStats, LLCPartition
from repro.memory.request import AccessType, MemoryRequest

__all__ = [
    "AccessType",
    "AddressMapping",
    "BankedLLC",
    "CacheStats",
    "DRAMConfig",
    "DRAMModel",
    "LLCPartition",
    "MemoryRequest",
]
