"""Morpheus: the paper's primary contribution.

This subpackage implements both halves of the hardware/software co-design:

* **Hardware** — the per-LLC-partition :class:`~repro.core.controller.MorpheusController`
  with its :class:`~repro.core.address_separation.AddressSeparator` and
  dual-Bloom-filter :class:`~repro.core.hit_miss_predictor.HitMissPredictor`.
  The query logic's storage (§4.1.3) counts in the overheads, but the
  replay never queues a request, so the logic itself is not modelled.
* **Software** — the extended LLC kernel
  (:class:`~repro.core.extended_llc.ExtendedLLCKernel`) that lays the extended
  LLC tag/data arrays out in the register file
  (:class:`~repro.core.register_file_store.RegisterFileStore`) and L1
  (:class:`~repro.core.l1_store.L1Store`) of cache-mode SMs, the paper's
  combined configuration (§5: shared memory shares the L1's array on the
  RTX 3080).  Its two optimizations reach the replay as
  follows: BDI compression as a per-block level drawn from the workload's
  compressibility mix plus that mix's capacity factor
  (:mod:`repro.core.compression`), and Indirect-MOV as a latency term of
  :meth:`~repro.core.config.ExtendedLLCTiming.access_latency_ns`.
"""

from repro.core.address_separation import AddressSeparator
from repro.core.compression import CompressionLevel
from repro.core.config import ExtendedLLCTiming, MorpheusConfig
from repro.core.controller import MorpheusController, PredictorMode
from repro.core.extended_llc import ExtendedLLC, ExtendedLLCKernel
from repro.core.hit_miss_predictor import HitMissPredictor
from repro.core.l1_store import L1Store
from repro.core.register_file_store import RegisterFileStore

__all__ = [
    "AddressSeparator",
    "CompressionLevel",
    "ExtendedLLC",
    "ExtendedLLCKernel",
    "ExtendedLLCTiming",
    "HitMissPredictor",
    "L1Store",
    "MorpheusConfig",
    "MorpheusController",
    "PredictorMode",
    "RegisterFileStore",
]
