"""Figure 12: execution time (top) and performance/watt (bottom) of the evaluated systems."""

from conftest import BENCH_ALL_APPS, BENCH_FIDELITY, BENCH_MEMORY_BOUND

from repro.analysis.metrics import geometric_mean
from repro.analysis.report import format_table
from repro.systems.registry import evaluate_application

SYSTEMS = [
    "BL",
    "IBL",
    "IBL-4X-LLC",
    "Unified-SM-Mem",
    "Frequency-Boost",
    "Morpheus-Basic",
    "Morpheus-Compression",
    "Morpheus-Indirect-MOV",
    "Morpheus-ALL",
]


def _collect():
    results = {}
    for app in BENCH_ALL_APPS:
        results[app] = {
            system: evaluate_application(system, app, fidelity=BENCH_FIDELITY)
            for system in SYSTEMS
        }
    return results


def test_fig12_execution_time_and_perf_per_watt():
    """Regenerate Figure 12: Morpheus improves memory-bound apps, matches 4x-LLC."""
    results = _collect()

    time_rows, power_rows = [], []
    norm_time = {system: [] for system in SYSTEMS}
    norm_ppw = {system: [] for system in SYSTEMS}
    for app, by_system in results.items():
        base = by_system["BL"]
        time_row, power_row = [app], [app]
        for system in SYSTEMS:
            stats = by_system[system]
            time_ratio = stats.normalized_execution_time(base)
            ppw_ratio = stats.normalized_perf_per_watt(base)
            time_row.append(time_ratio)
            power_row.append(ppw_ratio)
            if app in BENCH_MEMORY_BOUND:
                norm_time[system].append(time_ratio)
                norm_ppw[system].append(ppw_ratio)
        time_rows.append(time_row)
        power_rows.append(power_row)

    gmean_time = ["gmean(mem-bound)"] + [geometric_mean(norm_time[s]) for s in SYSTEMS]
    gmean_ppw = ["gmean(mem-bound)"] + [geometric_mean(norm_ppw[s]) for s in SYSTEMS]
    time_rows.append(gmean_time)
    power_rows.append(gmean_ppw)

    print("\n" + format_table(
        ["app", *SYSTEMS], time_rows,
        title="[Figure 12 top] Normalized execution time (lower is better)",
    ))
    print("\n" + format_table(
        ["app", *SYSTEMS], power_rows,
        title="[Figure 12 bottom] Normalized performance/watt (higher is better)",
    ))

    gmean_by_system = dict(zip(SYSTEMS, gmean_time[1:]))
    ppw_by_system = dict(zip(SYSTEMS, gmean_ppw[1:]))

    # Morpheus-ALL beats every real baseline on memory-bound applications.
    assert gmean_by_system["Morpheus-ALL"] < gmean_by_system["BL"]
    assert gmean_by_system["Morpheus-ALL"] < gmean_by_system["IBL"]
    assert gmean_by_system["Morpheus-ALL"] <= gmean_by_system["Morpheus-Basic"]
    # Morpheus-ALL lands close to the idealized IBL-4X-LLC design.
    assert gmean_by_system["Morpheus-ALL"] <= gmean_by_system["IBL-4X-LLC"] * 1.15
    # Energy efficiency improves over BL.
    assert ppw_by_system["Morpheus-ALL"] > ppw_by_system["BL"]

    # Compute-bound applications are unaffected by Morpheus.
    for app, by_system in results.items():
        if app not in BENCH_MEMORY_BOUND:
            ratio = by_system["Morpheus-ALL"].normalized_execution_time(by_system["BL"])
            assert 0.9 <= ratio <= 1.1
