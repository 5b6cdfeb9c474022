"""Table 3: number of GPU cores executing application threads per evaluated system."""

from conftest import BENCH_FIDELITY, BENCH_MEMORY_BOUND

from repro.analysis.report import format_table
from repro.systems.registry import evaluate_application, get_system
from repro.workloads.applications import get_application


def exhaustive_pick(runner, system_name: str, app: str) -> int:
    """The compute-SM count of the first best-IPC candidate, every candidate scored."""
    profile = get_application(app)
    configs = get_system(system_name, fidelity=BENCH_FIDELITY).search_configs(profile)
    ipcs = [stats.ipc for stats in runner.run_configs(profile, configs)]
    return configs[ipcs.index(max(ipcs))].num_compute_sms


def test_table3_compute_mode_core_counts(bench_runner):
    """Regenerate Table 3: IBL, Morpheus-Basic and Morpheus-ALL compute-SM counts."""

    def build():
        rows = {}
        for app in BENCH_MEMORY_BOUND:
            rows[app] = {
                "IBL": evaluate_application("IBL", app, fidelity=BENCH_FIDELITY).num_compute_sms,
                "Morpheus-Basic": evaluate_application(
                    "Morpheus-Basic", app, fidelity=BENCH_FIDELITY
                ).num_compute_sms,
                "Morpheus-ALL": evaluate_application(
                    "Morpheus-ALL", app, fidelity=BENCH_FIDELITY
                ).num_compute_sms,
            }
        return rows

    rows = build()

    table = [[app, row["IBL"], row["Morpheus-Basic"], row["Morpheus-ALL"]] for app, row in rows.items()]
    print("\n" + format_table(
        ["app", "IBL", "Morpheus-Basic", "Morpheus-ALL"], table,
        title="[Table 3] GPU cores executing application threads (out of 68)",
    ))

    for app, row in rows.items():
        # Morpheus leaves some cores for the extended LLC on memory-bound apps,
        # so it never uses more compute cores than the GPU has.
        assert 1 <= row["Morpheus-ALL"] <= 68
        assert 1 <= row["Morpheus-Basic"] <= 68
    # Compression enables larger extended LLCs per cache SM, which frees cores
    # for computation: Morpheus-ALL uses at least as many compute SMs on average.
    average_all = sum(row["Morpheus-ALL"] for row in rows.values()) / len(rows)
    average_basic = sum(row["Morpheus-Basic"] for row in rows.values()) / len(rows)
    assert average_all >= average_basic * 0.9
    # A search replays only the candidates whose compute roof can still win;
    # each pick must equal the first maximum over every candidate.
    for app, row in rows.items():
        for system_name, pick in row.items():
            assert pick == exhaustive_pick(bench_runner, system_name, app), (system_name, app)
