"""GPU configuration: the RTX 3080 baseline of Table 1 and its variants.

Compute and cache core modes reach the simulation only as the SM split
that the replay and the scorer read (``SimulationConfig.num_compute_sms``
and ``num_cache_sms``).
"""

from repro.gpu.config import GPUConfig, RTX3080_CONFIG

__all__ = [
    "GPUConfig",
    "RTX3080_CONFIG",
]
