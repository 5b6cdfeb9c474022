"""§7.4: LLC throughput, interconnect load and off-chip bandwidth analysis."""

from conftest import BENCH_FIDELITY, BENCH_MEMORY_BOUND

from repro.analysis.metrics import geometric_mean
from repro.analysis.report import format_table
from repro.systems.registry import evaluate_application


def test_sec74_llc_throughput_noc_and_offchip():
    """Regenerate the §7.4 analysis: Morpheus raises LLC throughput and NoC load,
    and cuts off-chip traffic and MPKI relative to IBL."""

    def build():
        rows = {}
        for app in BENCH_MEMORY_BOUND:
            rows[app] = {
                system: evaluate_application(system, app, fidelity=BENCH_FIDELITY)
                for system in ("BL", "IBL", "Morpheus-ALL")
            }
        return rows

    rows = build()

    table = []
    llc_gain, noc_gain, dram_reduction, mpki_reduction = [], [], [], []
    for app, stats in rows.items():
        bl, ibl, mor = stats["BL"], stats["IBL"], stats["Morpheus-ALL"]

        def served_throughput(s):
            # Useful LLC throughput: data actually served by (either) LLC per cycle.
            return s.llc_hit_rate * s.llc_apki * s.ipc

        llc_ratio = served_throughput(mor) / max(1e-9, served_throughput(bl))
        noc_ratio = (mor.noc_bytes / mor.execution_cycles) / max(
            1e-12, bl.noc_bytes / bl.execution_cycles
        )
        dram_ratio = mor.dram_bytes / max(1e-9, ibl.dram_bytes)
        mpki_ratio = mor.llc_mpki / max(1e-9, ibl.llc_mpki)
        llc_gain.append(llc_ratio)
        noc_gain.append(noc_ratio)
        dram_reduction.append(dram_ratio)
        mpki_reduction.append(mpki_ratio)
        table.append([app, llc_ratio, noc_ratio, dram_ratio, mpki_ratio])

    table.append([
        "gmean",
        geometric_mean(llc_gain),
        geometric_mean(noc_gain),
        geometric_mean(dram_reduction),
        geometric_mean(mpki_reduction),
    ])
    print("\n" + format_table(
        ["app", "LLC thrpt vs BL", "NoC load vs BL", "DRAM bytes vs IBL", "MPKI vs IBL"],
        table,
        title="[Sec 7.4] Bandwidth analysis (ratios; Morpheus-ALL relative to BL / IBL)",
    ))

    # Morpheus increases LLC throughput and NoC load, and reduces off-chip
    # traffic and LLC MPKI relative to IBL (directions per §7.4).
    assert geometric_mean(llc_gain) > 1.0
    assert geometric_mean(noc_gain) > 1.0
    assert geometric_mean(dram_reduction) < 1.0
    assert geometric_mean(mpki_reduction) < 1.0
