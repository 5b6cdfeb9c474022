"""The geometric mean of the paper's gmean rows."""

from __future__ import annotations

import math
from typing import Iterable


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (the paper's 'gmean' rows).

    Raises:
        ValueError: if the sequence is empty or contains non-positive values.
    """
    values = list(values)
    if not values:
        raise ValueError("geometric_mean() requires at least one value")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean() requires strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
