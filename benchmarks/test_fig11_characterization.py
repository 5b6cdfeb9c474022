"""Figure 11: characterization of the extended LLC kernel on the real GPU (§5)."""

from repro.analysis.report import format_table
from repro.characterization.extended_llc_kernel import (
    ExtendedLLCCharacterization,
    WARP_COUNTS,
    combined_configuration,
)


def test_fig11_characterization():
    """Regenerate Figure 11(a-d): capacity, latency, bandwidth and energy/byte."""
    model = ExtendedLLCCharacterization()
    points = model.figure11()

    rows = [
        [p.store, p.num_warps, p.capacity_kib, p.latency_ns, p.bandwidth_gbps, p.energy_pj_per_byte]
        for p in points
    ]
    print("\n" + format_table(
        ["store", "warps", "capacity_KiB", "latency_ns", "bandwidth_GBps", "energy_pJ_per_B"],
        rows,
        title="[Figure 11] Extended LLC kernel characterization",
    ))

    ideal = model.ideal_interconnect_bandwidths(48)
    print(f"  ideal-interconnect bandwidth @48 warps: {ideal}")
    combined = combined_configuration(model)
    print(f"  combined RF(32)+L1(16) configuration: {combined}")

    rf = {p.num_warps: p for p in points if p.store == "register_file"}
    # Capacity peaks at 8 warps; 48 warps lay out 192 KiB (Figure 8).
    assert max(rf, key=lambda w: rf[w].capacity_kib) == 8
    assert rf[48].capacity_kib == 192.0
    # Latency grows and energy/byte falls as warp count grows.
    assert rf[48].latency_ns > rf[8].latency_ns
    assert rf[48].energy_pj_per_byte < rf[1].energy_pj_per_byte
    # Bandwidth is interconnect-limited below 40 GB/s.
    assert rf[48].bandwidth_gbps <= 40.0
    assert combined["capacity_kib"] > 300.0


def test_fig11_ideal_interconnect():
    """The paper's ideal-interconnect study: 290/106/97 GB/s at 48 warps."""
    model = ExtendedLLCCharacterization()
    ideal = model.ideal_interconnect_bandwidths(48)
    assert ideal["register_file"] > ideal["shared_memory"] > ideal["l1"]
    assert ideal["register_file"] / model.bandwidth_gbps("register_file", 48) > 5.0
