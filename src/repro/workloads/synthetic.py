"""Synthetic trace builders.

These helpers produce simple, well-understood access patterns used by unit
tests, examples and the characterization microbenchmarks: uniform random
accesses, sequential/strided streams, hot/cold mixtures and Zipfian-skewed
accesses.  The application models in :mod:`repro.workloads.generator` compose
the same primitives.  Every trace holds block-aligned loads and stores from
SM 0.
"""

from __future__ import annotations

import random
from typing import List

from repro.memory.request import AccessType, MemoryRequest
from repro.workloads.trace import MemoryTrace

BLOCK = 128


def _request(block: int, is_write: bool, block_size: int) -> MemoryRequest:
    access_type = AccessType.STORE if is_write else AccessType.LOAD
    return MemoryRequest(block * block_size, access_type, size_bytes=block_size)


def uniform_random_trace(
    num_accesses: int,
    footprint_bytes: int,
    write_fraction: float = 0.2,
    seed: int = 0,
    block_size: int = BLOCK,
    name: str = "uniform",
) -> MemoryTrace:
    """Uniformly random block accesses over a fixed footprint."""
    if num_accesses < 0:
        raise ValueError("num_accesses must be non-negative")
    if footprint_bytes <= 0:
        raise ValueError("footprint_bytes must be positive")
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError("write_fraction must be in [0, 1]")
    rng = random.Random(seed)
    num_blocks = max(1, footprint_bytes // block_size)
    requests = [
        _request(rng.randrange(num_blocks), rng.random() < write_fraction, block_size)
        for _ in range(num_accesses)
    ]
    return MemoryTrace(requests, name=name, block_size=block_size)


def strided_trace(
    num_accesses: int,
    footprint_bytes: int,
    stride_blocks: int = 1,
    write_fraction: float = 0.0,
    seed: int = 0,
    block_size: int = BLOCK,
    name: str = "strided",
) -> MemoryTrace:
    """A streaming access pattern that walks the footprint with a fixed stride."""
    if stride_blocks <= 0:
        raise ValueError("stride_blocks must be positive")
    rng = random.Random(seed)
    num_blocks = max(1, footprint_bytes // block_size)
    requests: List[MemoryRequest] = []
    position = 0
    for _ in range(num_accesses):
        requests.append(
            _request(position % num_blocks, rng.random() < write_fraction, block_size)
        )
        position += stride_blocks
    return MemoryTrace(requests, name=name, block_size=block_size)


def hot_cold_trace(
    num_accesses: int,
    footprint_bytes: int,
    hot_fraction: float = 0.2,
    hot_access_probability: float = 0.8,
    write_fraction: float = 0.2,
    seed: int = 0,
    block_size: int = BLOCK,
    name: str = "hot-cold",
) -> MemoryTrace:
    """A classic hot/cold mixture: a small hot region absorbs most accesses."""
    if not 0.0 < hot_fraction <= 1.0:
        raise ValueError("hot_fraction must be in (0, 1]")
    if not 0.0 <= hot_access_probability <= 1.0:
        raise ValueError("hot_access_probability must be in [0, 1]")
    rng = random.Random(seed)
    num_blocks = max(2, footprint_bytes // block_size)
    hot_blocks = max(1, int(num_blocks * hot_fraction))
    requests: List[MemoryRequest] = []
    for _ in range(num_accesses):
        if rng.random() < hot_access_probability:
            block = rng.randrange(hot_blocks)
        else:
            block = hot_blocks + rng.randrange(max(1, num_blocks - hot_blocks))
        requests.append(_request(block, rng.random() < write_fraction, block_size))
    return MemoryTrace(requests, name=name, block_size=block_size)


def zipfian_trace(
    num_accesses: int,
    footprint_bytes: int,
    alpha: float = 0.9,
    write_fraction: float = 0.2,
    seed: int = 0,
    block_size: int = BLOCK,
    name: str = "zipf",
) -> MemoryTrace:
    """Zipfian-skewed block popularity (irregular graph-like access patterns)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rng = random.Random(seed)
    num_blocks = max(1, footprint_bytes // block_size)
    # Build the Zipf CDF once; cap the rank count to bound setup cost.
    ranks = min(num_blocks, 4096)
    weights = [1.0 / (rank ** alpha) for rank in range(1, ranks + 1)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)

    requests: List[MemoryRequest] = []
    for _ in range(num_accesses):
        draw = rng.random()
        # Binary search over the CDF.
        lo, hi = 0, ranks - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < draw:
                lo = mid + 1
            else:
                hi = mid
        # Spread ranks over the whole footprint deterministically.
        block = (lo * 2654435761) % num_blocks
        requests.append(_request(block, rng.random() < write_fraction, block_size))
    return MemoryTrace(requests, name=name, block_size=block_size)
