"""Cache replacement policies.

The conventional LLC, the per-SM L1 caches, and the extended LLC all use a
replacement policy object to decide which way of a set to evict.  The paper's
extended LLC kernel implements LRU with per-block counters held in the
metadata register (Algorithm 1); the conventional caches also use LRU.  FIFO
and random policies are provided for ablations and tests.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, Iterable, List, Optional


class ReplacementPolicy(abc.ABC):
    """Tracks recency/insertion state for one cache set and picks victims.

    A policy instance manages ``associativity`` ways indexed ``0 ..
    associativity - 1``.  The cache informs the policy about insertions and
    accesses; the policy answers victim queries.
    """

    def __init__(self, associativity: int) -> None:
        if associativity <= 0:
            raise ValueError(f"associativity must be positive, got {associativity}")
        self.associativity = associativity

    @abc.abstractmethod
    def on_insert(self, way: int) -> None:
        """Record that a new block was installed into ``way``."""

    @abc.abstractmethod
    def on_access(self, way: int) -> None:
        """Record a hit on the block in ``way``."""

    @abc.abstractmethod
    def victim(self, valid_ways: Iterable[int]) -> int:
        """Choose the way to evict among ``valid_ways`` (all ways occupied)."""

    def on_invalidate(self, way: int) -> None:
        """Record that ``way`` was invalidated.  Default: no-op."""

    def _check_way(self, way: int) -> None:
        if not 0 <= way < self.associativity:
            raise ValueError(f"way {way} out of range [0, {self.associativity})")


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used replacement.

    Mirrors the paper's extended LLC kernel behaviour: each block carries an
    LRU counter which is reset on a hit while all other counters decrement
    (Algorithm 1, lines 8-12).  Here the used ways are kept in recency order
    instead, least recently used first: a dict keeps insertion order, and a
    touched way is re-inserted.
    """

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        self._order: Dict[int, None] = {}

    def _touch(self, way: int) -> None:
        self._check_way(way)
        self._order.pop(way, None)
        self._order[way] = None

    def on_insert(self, way: int) -> None:
        self._touch(way)

    def on_access(self, way: int) -> None:
        self._touch(way)

    def on_invalidate(self, way: int) -> None:
        self._check_way(way)
        self._order.pop(way, None)

    def victim(self, valid_ways: Iterable[int]) -> int:
        candidates = list(valid_ways)
        if not candidates:
            raise ValueError("victim() called with no valid ways")
        order = self._order
        # A way not used since its last invalidation is older than any used
        # one; while every way of the set is in use, there is none.
        if len(order) < self.associativity:
            for way in candidates:
                if way not in order:
                    return way
        for way in order:
            if way in candidates:
                return way
        return candidates[0]  # only ways outside the set, none ever used


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out replacement: evict the oldest inserted block."""

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        self._clock = 0
        self._inserted_at: Dict[int, int] = {}

    def on_insert(self, way: int) -> None:
        self._check_way(way)
        self._clock += 1
        self._inserted_at[way] = self._clock

    def on_access(self, way: int) -> None:
        self._check_way(way)

    def on_invalidate(self, way: int) -> None:
        self._check_way(way)
        self._inserted_at.pop(way, None)

    def victim(self, valid_ways: Iterable[int]) -> int:
        candidates = list(valid_ways)
        if not candidates:
            raise ValueError("victim() called with no valid ways")
        return min(candidates, key=lambda way: self._inserted_at.get(way, -1))


class RandomPolicy(ReplacementPolicy):
    """Random replacement with a seeded generator for reproducibility."""

    def __init__(self, associativity: int, seed: int = 0) -> None:
        super().__init__(associativity)
        self._rng = random.Random(seed)

    def on_insert(self, way: int) -> None:
        self._check_way(way)

    def on_access(self, way: int) -> None:
        self._check_way(way)

    def victim(self, valid_ways: Iterable[int]) -> int:
        candidates = list(valid_ways)
        if not candidates:
            raise ValueError("victim() called with no valid ways")
        return self._rng.choice(candidates)


_POLICY_FACTORIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "random": RandomPolicy,
}


def make_replacement_policy(name: str, associativity: int, **kwargs) -> ReplacementPolicy:
    """Create a replacement policy by name (``"lru"``, ``"fifo"``, ``"random"``)."""
    try:
        factory = _POLICY_FACTORIES[name.lower()]
    except KeyError:
        valid = ", ".join(sorted(_POLICY_FACTORIES))
        raise ValueError(f"unknown replacement policy {name!r}; expected one of: {valid}") from None
    return factory(associativity, **kwargs)
