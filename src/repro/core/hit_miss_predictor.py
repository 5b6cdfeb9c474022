"""The dual-Bloom-filter extended-LLC hit/miss predictor (§4.1.2).

Extended LLC misses cost more than conventional LLC misses (773 ns vs 608 ns
in Fig. 5) because they pay an extra NoC round trip plus a software tag
lookup.  The Morpheus controller therefore predicts the outcome of each
extended-LLC lookup and sends predicted misses straight to DRAM.

Correctness requires that the predictor never produce a *false negative*
(predicting "miss" for a block that is actually cached would return stale
data from DRAM).  False positives merely waste the round trip.  The paper's
scheme keeps two Bloom filters per extended LLC set:

* **BF1** always contains at least all blocks currently in the set --
  querying BF1 can therefore never yield a false negative.
* **BF2** contains the *n* most recently used blocks of the set.

Every access inserts the block into both filters.  Once *n* reaches the set's
associativity, BF2 is guaranteed (under LRU) to contain every resident block,
so BF1 is cleared, the filters swap roles and the scheme repeats — bounding
the false-positive build-up from evicted blocks lingering in BF1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Set

from repro.core.bloom_filter import _key_mask


@dataclass
class PredictorStats:
    """Prediction outcome counters (ground truth supplied by the caller)."""

    predictions: int = 0
    predicted_hits: int = 0
    predicted_misses: int = 0
    false_positives: int = 0
    false_negatives: int = 0
    swaps: int = 0

    @property
    def false_positive_rate(self) -> float:
        """Fraction of predictions that were hit-predictions on absent blocks."""
        if self.predictions == 0:
            return 0.0
        return self.false_positives / self.predictions

    def to_jsonable(self) -> Dict[str, int]:
        """Render the counters as a JSON-compatible field dict."""
        return dataclasses.asdict(self)

    @classmethod
    def from_jsonable(cls, payload: Dict[str, int]) -> "PredictorStats":
        """Rebuild stats from :meth:`to_jsonable` output (bit-identical)."""
        return cls(**payload)


class SetPredictor:
    """Dual Bloom filter state for a single extended LLC set.

    The two filters are int bit arrays hashed by the same masks as
    :class:`~repro.core.bloom_filter.BloomFilter` (``_key_mask``), so a unit
    predicts exactly what two such filters and the swap rule predict.  A
    tag's mask is computed once and kept in ``masks``, the memo its
    :class:`HitMissPredictor` shares with all of its units.

    Counts its predictions and filter swaps in ``stats``, its
    :class:`HitMissPredictor`'s :attr:`~HitMissPredictor.stats`.  It holds
    those stats rather than the predictor, which holds it: a unit pointing
    back at its predictor would make every predictor a reference cycle.
    """

    __slots__ = (
        "_stats", "_masks", "associativity", "num_bits", "num_hashes", "bf1", "bf2",
        "_bf2_tags", "swaps",
    )

    def __init__(
        self,
        stats: PredictorStats,
        masks: Dict[int, int],
        associativity: int,
        filter_bytes: int,
        num_hashes: int,
    ) -> None:
        self._stats = stats
        self._masks = masks
        self.associativity = associativity
        self.num_bits = filter_bytes * 8
        self.num_hashes = num_hashes
        #: BF1 (queried) and BF2 (the recent blocks) as bit arrays.
        self.bf1 = 0
        self.bf2 = 0
        # Tags known to be in BF2 since its last clear; len() is the paper's n.
        self._bf2_tags: Set[int] = set()
        self.swaps = 0

    def _mask(self, tag: int) -> int:
        """The filter bits of ``tag``, from the memo (computed on first use)."""
        mask = self._masks.get(tag)
        if mask is None:
            mask = self._masks[tag] = _key_mask(tag, self.num_bits, self.num_hashes)
        return mask

    def predict(self, tag: int) -> bool:
        """Predict whether ``tag`` currently resides in the set (query BF1)."""
        mask = self._mask(tag)
        hit = self.bf1 & mask == mask
        stats = self._stats
        stats.predictions += 1
        if hit:
            stats.predicted_hits += 1
        else:
            stats.predicted_misses += 1
        return hit

    def record_access(self, tag: int) -> None:
        """Update both filters on an access (insert or reuse) of ``tag``.

        Maintains the two invariants and performs the BF1 <- BF2 swap when n
        reaches the associativity (flow diagram of Figure 6(b)).
        """
        mask = self._mask(tag)
        tags = self._bf2_tags
        tags.add(tag)
        if len(tags) >= self.associativity:
            # Insert into both, clear BF1 and swap: BF2 becomes BF1, and the
            # cleared BF1 the new, empty BF2.
            self.bf1 = self.bf2 | mask
            self.bf2 = 0
            tags.clear()
            self.swaps += 1
            self._stats.swaps += 1
        else:
            self.bf1 |= mask
            self.bf2 |= mask

    def predict_and_record(self, tag: int, resident: bool) -> bool:
        """One access's prediction, its scoring and the filter update, in one call.

        Does what :meth:`predict`, then
        :meth:`HitMissPredictor.record_outcome` with ``resident`` (whether
        ``tag`` really is in the set) as ground truth, then
        :meth:`record_access` do, in that order, on one mask.  Returns the
        prediction.
        """
        # _mask(), inline: this runs once per extended-LLC access.
        mask = self._masks.get(tag)
        if mask is None:
            mask = self._masks[tag] = _key_mask(tag, self.num_bits, self.num_hashes)
        hit = self.bf1 & mask == mask
        stats = self._stats
        stats.predictions += 1
        if hit:
            stats.predicted_hits += 1
            if not resident:
                stats.false_positives += 1
        else:
            stats.predicted_misses += 1
            if resident:
                stats.false_negatives += 1
        # record_access(), inline.
        tags = self._bf2_tags
        tags.add(tag)
        if len(tags) >= self.associativity:
            self.bf1 = self.bf2 | mask
            self.bf2 = 0
            tags.clear()
            self.swaps += 1
            stats.swaps += 1
        else:
            self.bf1 |= mask
            self.bf2 |= mask
        return hit


class HitMissPredictor:
    """Per-partition hit/miss predictor: one dual-filter unit per extended LLC set.

    Args:
        num_sets: Extended LLC sets handled by this partition's controller
            (up to 256 on the modelled RTX 3080).
        associativity: Blocks per extended LLC set (32).
        filter_bytes: Size of each Bloom filter (32 B).
        num_hashes: Hash functions per filter.
    """

    def __init__(
        self,
        num_sets: int = 256,
        associativity: int = 32,
        filter_bytes: int = 32,
        num_hashes: int = 4,
    ) -> None:
        if num_sets <= 0:
            raise ValueError("num_sets must be positive")
        if associativity <= 0:
            raise ValueError("associativity must be positive")
        if filter_bytes <= 0 or num_hashes <= 0:
            raise ValueError("filter_bytes and num_hashes must be positive")
        self.num_sets = num_sets
        self.associativity = associativity
        self.filter_bytes = filter_bytes
        self.num_hashes = num_hashes
        self._sets: Dict[int, SetPredictor] = {}
        # Tag -> filter mask, shared by the set units.  A mask depends only
        # on the tag and the filter geometry.
        self._masks: Dict[int, int] = {}
        # The set units count into this object: zero it in place, never
        # rebind it.
        self.stats = PredictorStats()

    def unit(self, set_index: int) -> SetPredictor:
        """The dual-filter unit of ``set_index`` (created on first use)."""
        predictor = self._sets.get(set_index)
        if predictor is None:
            if not 0 <= set_index < self.num_sets:
                raise ValueError(f"set_index {set_index} out of range [0, {self.num_sets})")
            predictor = self._sets[set_index] = SetPredictor(
                self.stats, self._masks, self.associativity, self.filter_bytes, self.num_hashes
            )
        return predictor

    def predict(self, set_index: int, tag: int) -> bool:
        """Predict a hit (True) or miss (False) for ``tag`` in ``set_index``."""
        return self.unit(set_index).predict(tag)

    def record_outcome(self, predicted_hit: bool, actual_hit: bool) -> None:
        """Record ground truth so false-positive/negative rates can be audited."""
        if predicted_hit and not actual_hit:
            self.stats.false_positives += 1
        elif not predicted_hit and actual_hit:
            self.stats.false_negatives += 1

    def record_access(self, set_index: int, tag: int) -> None:
        """Inform the predictor that ``tag`` was inserted into / reused in its set."""
        self.unit(set_index).record_access(tag)
