"""Figure 1: normalized IPC as the number of SMs scales from 10 to 68."""

from conftest import BENCH_ALL_APPS, BENCH_FIDELITY

from repro.analysis.report import format_series
from repro.analysis.sweep import normalized_ipc_curve, sm_count_sweep

SM_COUNTS = (10, 20, 34, 50, 68)


def test_fig1_sm_scaling():
    """Regenerate the Figure 1 curves: memory-bound apps saturate, compute-bound scale."""

    def build():
        curves = {}
        for app in BENCH_ALL_APPS:
            sweep = sm_count_sweep(app, sm_counts=SM_COUNTS, fidelity=BENCH_FIDELITY)
            curves[app] = normalized_ipc_curve(sweep)
        return curves

    curves = build()

    print("\n[Figure 1] Normalized IPC vs number of SMs (normalized to 10 SMs)")
    for app, curve in curves.items():
        print("  " + format_series(app, curve))

    for app, curve in curves.items():
        values = list(curve.values())
        assert values[0] == 1.0
        # Every application benefits from going beyond 10 SMs at least a little.
        assert max(values) >= 1.0
