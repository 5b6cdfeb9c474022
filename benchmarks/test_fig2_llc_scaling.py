"""Figure 2: effect of 2x and 4x conventional LLC sizes on memory-bound applications."""

from conftest import BENCH_FIDELITY, BENCH_MEMORY_BOUND

from repro.analysis.metrics import geometric_mean
from repro.analysis.report import format_table
from repro.analysis.sweep import llc_scaling_speedups, llc_scaling_sweep

SM_CANDIDATES = (10, 20, 34, 50, 68)


def test_fig2_llc_scaling():
    """Regenerate Figure 2: every memory-bound app gains from a larger LLC."""

    def build():
        rows = {}
        for app in BENCH_MEMORY_BOUND:
            sweep = llc_scaling_sweep(
                app, scale_factors=(1.0, 2.0, 4.0), fidelity=BENCH_FIDELITY,
                sm_candidates=SM_CANDIDATES,
            )
            rows[app] = llc_scaling_speedups(sweep)
        return rows

    rows = build()

    table_rows = [[app, row[1.0], row[2.0], row[4.0]] for app, row in rows.items()]
    gmean_2x = geometric_mean([row[2.0] for row in rows.values()])
    gmean_4x = geometric_mean([row[4.0] for row in rows.values()])
    table_rows.append(["gmean", 1.0, gmean_2x, gmean_4x])
    print("\n" + format_table(
        ["app", "1X-LLC", "2X-LLC", "4X-LLC"], table_rows,
        title="[Figure 2] Normalized IPC with larger conventional LLCs",
    ))

    for app, row in rows.items():
        # A larger LLC never hurts and the 4x configuration helps every app.
        assert row[4.0] >= row[1.0] * 0.99
    assert gmean_4x > 1.1
