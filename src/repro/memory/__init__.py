"""Memory-hierarchy substrate: the banked LLC and DRAM.

This subpackage provides the building blocks of the baseline GPU memory
hierarchy that Morpheus extends.  Each access reaches them as plain values
(its byte address and, for the LLC, whether it writes) and moves one cache
block:

* :mod:`repro.memory.address_mapping` -- static address interleaving across
  LLC partitions.
* :mod:`repro.memory.llc` -- the banked conventional last level cache: one
  set-associative LRU slice per partition.
* :mod:`repro.memory.dram` -- a GDDR6X-style off-chip DRAM model.
"""

from repro.memory.address_mapping import AddressMapping
from repro.memory.dram import DRAMConfig, DRAMModel
from repro.memory.llc import BankedLLC, LLCPartition

__all__ = [
    "AddressMapping",
    "BankedLLC",
    "DRAMConfig",
    "DRAMModel",
    "LLCPartition",
]
