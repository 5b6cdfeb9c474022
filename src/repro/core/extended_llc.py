"""The extended LLC: software-managed cache capacity on cache-mode SMs (§4.2).

Two classes model the software half of Morpheus:

* :class:`ExtendedLLCKernel` — one instance of the helper kernel running on a
  single cache-mode SM.  It owns the SM's register-file and L1 stores (the
  paper's combination: shared memory shares the L1's array on the
  RTX 3080, §5), routes blocks between them with the same static
  address-separation principle as the Morpheus controller (proportional to
  each store's capacity), and performs tag lookups and LRU fills/evictions.
  Its two optimizations enter only as numbers: a compressing store draws
  each filled block's BDI level from the workload's
  :class:`Compressibility` mix (the block takes that many bytes of its set,
  and a compressed hit pays the decompression latency), and Indirect-MOV is
  the software or hardware term of
  :meth:`~repro.core.config.ExtendedLLCTiming.access_latency_ns`.
  :meth:`~ExtendedLLCKernel.locate` finds a block's store set and
  :meth:`~ExtendedLLCKernel.install` fills it; the kernel's own
  ``access``/``fill``/``resident`` and the Morpheus controller's single
  pass over an extended access are built on them.
* :class:`ExtendedLLC` — the aggregate extended LLC formed by all cache-mode
  SMs.  It maps a global extended LLC set index onto the owning SM and that
  SM's local warp/set, and exposes aggregate capacity to the address
  separator.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.address_separation import SPLIT_PERIOD, proportional_split_table
from repro.core.compression import CompressionLevel, effective_capacity_factor
from repro.core.config import MorpheusConfig
from repro.core.l1_store import L1Store
from repro.core.register_file_store import RegisterFileStore
from repro.core.store_base import ExtendedLLCSet, ExtendedLLCStore


@dataclass(frozen=True)
class Compressibility:
    """A workload's block compressibility mix (fractions of 4x / 2x blocks)."""

    high_fraction: float = 0.0
    low_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.high_fraction <= 1.0 or not 0.0 <= self.low_fraction <= 1.0:
            raise ValueError("fractions must be in [0, 1]")
        if self.high_fraction + self.low_fraction > 1.0 + 1e-9:
            raise ValueError("high_fraction + low_fraction must not exceed 1")

    def capacity_factor(self) -> float:
        """Effective extended-LLC capacity multiplier under BDI compression."""
        return effective_capacity_factor(self.high_fraction, self.low_fraction)

    def level_for_tag(self, tag: int) -> CompressionLevel:
        """Deterministic per-block compression level consistent with the mix."""
        digest = hashlib.blake2b(tag.to_bytes(16, "little"), digest_size=8).digest()
        draw = int.from_bytes(digest, "little") / 2 ** 64
        if draw < self.high_fraction:
            return CompressionLevel.HIGH
        if draw < self.high_fraction + self.low_fraction:
            return CompressionLevel.LOW
        return CompressionLevel.UNCOMPRESSED


#: The writebacks of a fill that evicted no dirty block (shared, immutable).
NO_WRITEBACKS: Tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class _StoreRoute:
    """One store of a kernel with its access timings, fixed at construction."""

    kind: str
    store: ExtendedLLCStore
    #: Whether blocks routed here are BDI-compressed.
    compresses: bool
    #: Service latency of a block stored uncompressed (and of a miss) /
    #: compressed.
    latency_ns: float
    compressed_latency_ns: float

    def service_latency_ns(self, compression: CompressionLevel) -> float:
        """Service latency of a block stored here at ``compression``."""
        if self.compresses and compression is not CompressionLevel.UNCOMPRESSED:
            return self.compressed_latency_ns
        return self.latency_ns


@dataclass(slots=True)
class ExtendedAccessResult:
    """Outcome of one extended LLC access on a cache-mode SM."""

    hit: bool
    store_kind: str
    service_latency_ns: float
    writebacks: Tuple[int, ...] = NO_WRITEBACKS
    compression: CompressionLevel = CompressionLevel.UNCOMPRESSED


class ExtendedLLCKernel:
    """The extended LLC kernel instance running on one cache-mode SM.

    Args:
        sm_id: The cache-mode SM hosting this kernel instance.
        config: Morpheus configuration (warp split, compression, ISA option).
        register_file_bytes: Register file capacity of the SM.
        l1_shared_bytes: Unified L1/shared-memory capacity of the SM.
        compressibility: The running workload's block compressibility mix
            (drives BDI levels when compression is enabled).
    """

    def __init__(
        self,
        sm_id: int,
        config: MorpheusConfig,
        register_file_bytes: int = 256 * 1024,
        l1_shared_bytes: int = 128 * 1024,
        compressibility: Compressibility | None = None,
    ) -> None:
        self.sm_id = sm_id
        self.config = config
        self.compressibility = compressibility or Compressibility()

        self.register_file_store = RegisterFileStore(
            num_warps=max(1, config.rf_warps),
            register_file_bytes=register_file_bytes,
            aux_registers_per_warp=config.registers_reserved_per_warp,
            compression_enabled=config.enable_compression,
            block_size=config.block_size,
        ) if config.rf_warps > 0 else None

        self.l1_store = L1Store(
            num_warps=max(1, config.l1_warps),
            l1_bytes=l1_shared_bytes,
            block_size=config.block_size,
        ) if config.l1_warps > 0 else None

        self.stores: Dict[str, ExtendedLLCStore] = {}
        if self.register_file_store is not None:
            self.stores["register_file"] = self.register_file_store
        if self.l1_store is not None:
            self.stores["l1"] = self.l1_store

        # The store capacities never change, so the proportional split is
        # resolved once per position of its period instead of on every access:
        # block ``tag`` goes to ``_routes[tag % SPLIT_PERIOD]`` (§4.2 task 3).
        capacities = tuple(
            (name, store.data_capacity_bytes()) for name, store in self.stores.items()
        )
        routes = {name: self._route(name, store) for name, store in self.stores.items()}
        self._block_size = config.block_size
        self._routes: List[_StoreRoute] = [
            routes[name] for name in proportional_split_table(capacities, config.block_size)
        ]

    # -- capacity ------------------------------------------------------------------

    @property
    def num_sets(self) -> int:
        """Extended LLC sets this SM contributes (one per kernel warp)."""
        return self.config.total_warps

    def effective_capacity_bytes(self) -> float:
        """Capacity including the compression gain on compressible stores."""
        total = 0.0
        factor = self.compressibility.capacity_factor()
        for store in self.stores.values():
            gain = factor if (self.config.enable_compression and store.supports_compression) else 1.0
            total += store.data_capacity_bytes() * gain
        return total

    # -- request servicing ------------------------------------------------------------

    def _route(self, name: str, store: ExtendedLLCStore) -> _StoreRoute:
        timing = self.config.timing
        hardware = self.config.enable_indirect_mov_isa
        return _StoreRoute(
            kind=name,
            store=store,
            compresses=self.config.enable_compression and store.supports_compression,
            latency_ns=timing.access_latency_ns(name, indirect_mov_hardware=hardware),
            compressed_latency_ns=timing.access_latency_ns(
                name, indirect_mov_hardware=hardware, compressed=True
            ),
        )

    def locate(self, set_index: int, tag: int) -> Tuple[_StoreRoute, ExtendedLLCSet]:
        """The route of block ``tag`` and the set of its store that holds it.

        Blocks are split between the stores proportionally to capacity
        (§4.2 task 3); each store folds ``set_index`` onto its own warps.
        A set is built the first time it is located.
        """
        route = self._routes[tag % SPLIT_PERIOD]
        store = route.store
        sets = store.sets
        index = set_index % store.num_warps
        llc_set = sets[index]
        if llc_set is None:
            llc_set = sets[index] = ExtendedLLCSet(
                store.ways_per_set, store.compression_enabled, store.block_size
            )
        return route, llc_set

    def install(
        self, route: _StoreRoute, llc_set: ExtendedLLCSet, tag: int, dirty: bool
    ) -> Tuple[CompressionLevel, Tuple[int, ...]]:
        """Fill block ``tag`` into ``llc_set``, found by :meth:`locate`.

        The block is compressed when its store compresses, and installed
        with LRU replacement.  Returns its compression level and the
        writeback addresses of the dirty victims.
        """
        level = CompressionLevel.UNCOMPRESSED
        if route.compresses:
            level = self.compressibility.level_for_tag(tag)
        writebacks = NO_WRITEBACKS
        for victim_tag, was_dirty in llc_set.fill(tag, dirty, level):
            if was_dirty:
                writebacks += (victim_tag * self._block_size,)
        return level, writebacks

    def access(self, set_index: int, address: int, is_write: bool = False) -> ExtendedAccessResult:
        """Serve one extended LLC request on this SM.

        Performs the tag lookup (Algorithm 1) in the responsible store's set;
        on a hit, the block is retrieved via Indirect-MOV (register file) or
        an ordinary L1 access, with decompression if the block was stored
        compressed.  On a miss nothing is filled — the caller decides
        whether to fill after fetching the block from DRAM (:meth:`fill`).
        """
        tag = address // self._block_size
        route, llc_set = self.locate(set_index, tag)
        meta = llc_set.metadata(tag)
        if meta is None:
            return ExtendedAccessResult(False, route.kind, route.latency_ns)
        llc_set.touch(tag, meta, is_write)
        compression = meta.compression
        return ExtendedAccessResult(
            True, route.kind, route.service_latency_ns(compression), compression=compression
        )

    def fill(self, set_index: int, address: int, dirty: bool = False) -> ExtendedAccessResult:
        """Insert a block fetched from DRAM after an extended LLC miss.

        The block is compressed (when enabled and supported by the target
        store) and installed with LRU replacement; dirty victims are returned
        as writeback addresses.
        """
        tag = address // self._block_size
        route, llc_set = self.locate(set_index, tag)
        level, writebacks = self.install(route, llc_set, tag, dirty)
        latency = route.service_latency_ns(level)
        if route.compresses:
            latency += self.config.timing.compression_overhead_ns
        return ExtendedAccessResult(False, route.kind, latency, writebacks, level)

    def resident(self, set_index: int, address: int) -> bool:
        """Whether the block containing ``address`` currently resides on this SM."""
        tag = address // self._block_size
        return self.locate(set_index, tag)[1].lookup(tag)


class ExtendedLLC:
    """The aggregate extended LLC across every cache-mode SM.

    Args:
        cache_sm_ids: SMs operating in cache mode.
        config: Morpheus configuration.
        register_file_bytes: Per-SM register file capacity.
        l1_shared_bytes: Per-SM unified L1/shared capacity.
        compressibility: Workload compressibility mix.
    """

    def __init__(
        self,
        cache_sm_ids: List[int],
        config: MorpheusConfig,
        register_file_bytes: int = 256 * 1024,
        l1_shared_bytes: int = 128 * 1024,
        compressibility: Compressibility | None = None,
    ) -> None:
        self.config = config
        self.cache_sm_ids = list(cache_sm_ids)
        if len(set(self.cache_sm_ids)) != len(self.cache_sm_ids):
            raise ValueError(f"cache_sm_ids must be distinct, got {self.cache_sm_ids}")
        self.kernels: Dict[int, ExtendedLLCKernel] = {
            sm_id: ExtendedLLCKernel(
                sm_id,
                config,
                register_file_bytes=register_file_bytes,
                l1_shared_bytes=l1_shared_bytes,
                compressibility=compressibility,
            )
            for sm_id in self.cache_sm_ids
        }
        # Global set index -> (sm_id, kernel, local set): the cache-mode SMs'
        # sets laid end to end in ``cache_sm_ids`` order.
        self._set_owners: List[Tuple[int, ExtendedLLCKernel, int]] = [
            (sm_id, kernel, local_set)
            for sm_id, kernel in self.kernels.items()
            for local_set in range(kernel.num_sets)
        ]
        # Fixed by the kernels' configs, and read by every partition's
        # controller: summed once here.
        self._effective_capacity_bytes = sum(
            kernel.effective_capacity_bytes() for kernel in self.kernels.values()
        )

    @property
    def enabled(self) -> bool:
        """Whether any SM is lending capacity."""
        return bool(self.kernels)

    @property
    def total_sets(self) -> int:
        """Total extended LLC sets across all cache-mode SMs."""
        return len(self._set_owners)

    def effective_capacity_bytes(self) -> float:
        """Extended LLC capacity including compression gains."""
        return self._effective_capacity_bytes

    def owner_of_set(self, global_set_index: int) -> Tuple[int, ExtendedLLCKernel, int]:
        """Map a global extended set index to ``(sm_id, kernel, local_set_index)``."""
        if not self._set_owners:
            raise RuntimeError("the extended LLC has no cache-mode SMs")
        if global_set_index < 0:
            raise ValueError("global_set_index must be non-negative")
        return self._set_owners[global_set_index % len(self._set_owners)]

    def access(self, global_set_index: int, address: int, is_write: bool = False) -> ExtendedAccessResult:
        """Serve an extended LLC request on the owning cache-mode SM."""
        _, kernel, local_set = self.owner_of_set(global_set_index)
        return kernel.access(local_set, address, is_write=is_write)

    def fill(self, global_set_index: int, address: int, dirty: bool = False) -> ExtendedAccessResult:
        """Fill a block into the owning SM after a DRAM fetch."""
        _, kernel, local_set = self.owner_of_set(global_set_index)
        return kernel.fill(local_set, address, dirty=dirty)

    def resident(self, global_set_index: int, address: int) -> bool:
        """Whether ``address`` is currently cached anywhere in the extended LLC."""
        _, kernel, local_set = self.owner_of_set(global_set_index)
        return kernel.resident(local_set, address)
