"""Figure 5: latency timelines of conventional and extended LLC hits and misses."""

from repro.analysis.latency_breakdown import llc_latency_timelines
from repro.analysis.report import format_table


def test_fig5_latency_timelines():
    """Regenerate the Figure 5 latency breakdown."""
    timelines = llc_latency_timelines()

    rows = [
        [name, breakdown.total_ns, " + ".join(f"{label}:{ns:.0f}" for label, ns in breakdown.segments)]
        for name, breakdown in timelines.items()
    ]
    print("\n" + format_table(
        ["timeline", "total_ns", "segments"], rows,
        title="[Figure 5] LLC hit/miss latency timelines (ns)",
    ))

    conventional_miss = timelines["conventional_miss"].total_ns
    extended_miss = timelines["extended_miss"].total_ns
    predicted_miss = timelines["predicted_extended_miss"].total_ns
    # Paper: 608 ns conventional miss, 773 ns extended miss (~27 % longer),
    # predicted misses as fast as conventional misses.
    assert 0.85 * 608 <= conventional_miss <= 1.15 * 608
    assert 1.15 <= extended_miss / conventional_miss <= 1.40
    assert predicted_miss <= conventional_miss * 1.05
