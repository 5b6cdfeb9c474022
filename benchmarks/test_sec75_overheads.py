"""§7.5: storage and power overheads of the Morpheus controller."""

from repro.analysis.overheads import compute_overheads
from repro.analysis.report import format_table


def test_sec75_storage_and_power_overheads():
    """Regenerate the §7.5 overhead accounting (21 KiB per partition, <1 % power)."""
    overheads = compute_overheads()

    rows = [
        ["Bloom filters / partition (KiB)", overheads.bloom_filter_bytes_per_partition / 1024],
        ["Query logic / partition (KiB)", overheads.query_logic_bytes_per_partition / 1024],
        ["Total / partition (KiB)", overheads.total_bytes_per_partition / 1024],
        ["Total across partitions (KiB)", overheads.total_bytes / 1024],
        ["Fraction of LLC slice (%)", overheads.storage_fraction_of_llc_slice * 100],
        ["Controller power (W)", overheads.controller_power_watts],
        ["Fraction of GPU power (%)", overheads.power_fraction * 100],
    ]
    print("\n" + format_table(["overhead", "value"], rows, title="[Sec 7.5] Morpheus overheads"))

    assert overheads.bloom_filter_bytes_per_partition == 16 * 1024
    assert overheads.query_logic_bytes_per_partition == 5 * 1024
    assert overheads.total_bytes_per_partition == 21 * 1024
    assert overheads.storage_fraction_of_llc_slice < 0.05
    assert overheads.power_fraction < 0.011
