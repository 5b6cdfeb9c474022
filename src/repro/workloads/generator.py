"""Trace generation from application profiles.

The :class:`TraceGenerator` turns an :class:`~repro.workloads.applications.ApplicationProfile`
into an LLC-level memory trace: the stream of block-aligned accesses that
miss in the per-SM L1 caches and reach the LLC partitions, held as a flat
array of byte addresses and one of write flags.  The generator composes
three components according to the profile:

* a **hot region** (``hot_fraction`` of the footprint) receiving
  ``hot_probability`` of the reuse accesses,
* a **cold region** (the rest of the footprint) receiving the remainder, and
* a **streaming component** (``streaming_fraction`` of all accesses) that
  walks fresh addresses with no temporal reuse — traffic that no LLC capacity
  can capture.

Footprints can be scaled down together with the cache capacities
(``scale``) so hit rates stay representative while traces remain short
enough for fast simulation.
"""

from __future__ import annotations

import hashlib
import random
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Tuple

from repro.workloads.applications import ApplicationProfile
from repro.workloads.trace import MemoryTrace


def _stable_seed(seed: int, name: str, num_compute_sms: int) -> int:
    """Derive a process-independent RNG seed.

    ``hash()`` on strings is randomized per process (PYTHONHASHSEED), which
    would make traces — and therefore every cached or parallel result —
    irreproducible across processes.  A blake2b digest is stable everywhere.
    """
    digest = hashlib.blake2b(
        f"{seed}|{name}|{num_compute_sms}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class TraceParameters:
    """Resolved parameters of one trace-generation run."""

    footprint_blocks: int
    hot_blocks: int
    num_accesses: int
    scale: float
    num_compute_sms: int


class TraceGenerator:
    """Generates LLC-level traces for an application profile.

    Args:
        profile: The application to model.
        num_compute_sms: SMs running the application (the footprint's per-SM
            component scales with it).
        scale: Downscaling factor applied to the footprint (must match the
            capacity scaling used by the simulator).
        seed: Seed for the deterministic random generator.
        block_size: Cache block size the generated addresses are aligned to
            (the replaying GPU's ``block_size``).
    """

    def __init__(
        self,
        profile: ApplicationProfile,
        num_compute_sms: int,
        scale: float = 1.0,
        seed: int = 0,
        block_size: int = 128,
    ) -> None:
        if num_compute_sms <= 0:
            raise ValueError("num_compute_sms must be positive")
        if not 0.0 < scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")
        if block_size <= 0 or block_size & (block_size - 1):
            raise ValueError("block_size must be a positive power of two")
        self.profile = profile
        self.num_compute_sms = num_compute_sms
        self.scale = scale
        self.seed = seed
        self.block_size = block_size
        # The streaming component never reuses addresses, so its cursor must
        # persist across generate() calls: otherwise a warm-up trace would
        # pre-load the "fresh" addresses of the measurement trace and large
        # caches would spuriously hit on streaming traffic.
        self._streaming_cursor: int | None = None

    def parameters(self, num_accesses: int) -> TraceParameters:
        """Resolve the footprint and region sizes for a trace of ``num_accesses``."""
        footprint_bytes = self.profile.footprint_bytes(self.num_compute_sms) * self.scale
        footprint_blocks = max(16, int(footprint_bytes / self.block_size))
        hot_blocks = max(1, int(footprint_blocks * self.profile.hot_fraction))
        return TraceParameters(
            footprint_blocks=footprint_blocks,
            hot_blocks=hot_blocks,
            num_accesses=num_accesses,
            scale=self.scale,
            num_compute_sms=self.num_compute_sms,
        )

    def generate(self, num_accesses: int) -> MemoryTrace:
        """Generate a trace of ``num_accesses`` LLC-level accesses.

        Each access draws its block (streaming, hot or cold region), then
        whether it writes: an atomic draw, and a store draw only when the
        atomic draw fails.
        """
        if num_accesses < 0:
            raise ValueError("num_accesses must be non-negative")
        params = self.parameters(num_accesses)
        profile = self.profile
        rng = random.Random(_stable_seed(self.seed, profile.name, self.num_compute_sms))
        draw = rng.random
        randrange = rng.randrange
        streaming_fraction = profile.streaming_fraction
        hot_probability = profile.hot_probability
        atomic_fraction = profile.atomic_fraction
        write_fraction = profile.write_fraction
        hot_blocks = params.hot_blocks
        cold_blocks = max(1, params.footprint_blocks - hot_blocks)
        block_size = self.block_size

        addresses = array("q")
        writes = bytearray()
        append_address = addresses.append
        append_write = writes.append
        # The streaming region sits past the reuse footprint.
        cursor = self._streaming_cursor
        if cursor is None:
            cursor = params.footprint_blocks
        for _ in range(num_accesses):
            if draw() < streaming_fraction:
                block = cursor
                cursor += 1
            elif draw() < hot_probability:
                block = randrange(hot_blocks)
            else:
                block = hot_blocks + randrange(cold_blocks)
            append_address(block * block_size)
            append_write(draw() < atomic_fraction or draw() < write_fraction)
        self._streaming_cursor = cursor
        return MemoryTrace(
            addresses,
            writes,
            name=f"{profile.name}-{self.num_compute_sms}sm",
            block_size=block_size,
        )


#: Key of one (warm-up, measurement) trace pair in the :class:`TraceCache`.
_TraceKey = Tuple[ApplicationProfile, int, float, int, int, int, int]


class TraceCache:
    """LRU cache of generated (warm-up, measurement) trace pairs.

    Different evaluated systems replay the *same* trace whenever they share
    the (profile, compute-SM count, scale, seed, trace lengths, block size)
    tuple — e.g. BL vs. Morpheus at the same operating point, or repeated
    best-SM-count searches across systems.  Generating traces is a visible
    fraction of a short simulation, so the cache returns the previously
    generated pair.

    The warm-up and measurement traces are generated back to back by one
    generator and cached together because the streaming cursor persists
    across ``generate()`` calls: the measurement trace's fresh streaming
    addresses depend on the warm-up trace having been generated first.

    Every replay of a cached pair reads the same address and write-flag
    arrays, so callers must not mutate them.
    """

    def __init__(self, max_entries: int = 32) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: "OrderedDict[_TraceKey, Tuple[MemoryTrace, MemoryTrace]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def traces(
        self,
        profile: ApplicationProfile,
        num_compute_sms: int,
        scale: float,
        seed: int,
        warmup_accesses: int,
        trace_accesses: int,
        block_size: int = 128,
    ) -> Tuple[MemoryTrace, MemoryTrace]:
        """Return the (warm-up, measurement) pair, generating it on a miss."""
        key: _TraceKey = (
            profile, num_compute_sms, scale, seed, warmup_accesses, trace_accesses, block_size,
        )
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return cached

        self.misses += 1
        generator = TraceGenerator(
            profile, num_compute_sms=num_compute_sms, scale=scale, seed=seed,
            block_size=block_size,
        )
        warmup = generator.generate(warmup_accesses)
        measurement = generator.generate(trace_accesses)
        self._entries[key] = (warmup, measurement)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return warmup, measurement

    def clear(self) -> None:
        """Drop all cached traces (counters preserved)."""
        self._entries.clear()


SHARED_TRACE_CACHE = TraceCache()
"""Process-wide trace cache shared by all simulators."""
