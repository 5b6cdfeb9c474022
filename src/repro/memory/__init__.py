"""Memory-hierarchy substrate: the banked LLC and DRAM.

This subpackage provides the building blocks of the baseline GPU memory
hierarchy that Morpheus extends.  Each access reaches them as plain values
(its byte address and, for the LLC, whether it writes) and moves one cache
block:

* :mod:`repro.memory.llc` -- the banked conventional last level cache: one
  set-associative LRU slice per partition.  Blocks are interleaved across
  the partitions (block ``b`` to partition ``b % num_partitions``) by the
  replay engine.
* :mod:`repro.memory.dram` -- a GDDR6X-style off-chip DRAM model.
"""

from repro.memory.dram import DRAMConfig, DRAMModel
from repro.memory.llc import BankedLLC, LLCPartition

__all__ = [
    "BankedLLC",
    "DRAMConfig",
    "DRAMModel",
    "LLCPartition",
]
