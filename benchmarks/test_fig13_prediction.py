"""Figure 13: effect of hit/miss prediction on Morpheus-Basic execution time."""

from conftest import BENCH_FIDELITY, BENCH_MEMORY_BOUND

from repro.analysis.metrics import geometric_mean
from repro.analysis.report import format_table
from repro.systems.registry import evaluate_application

PREDICTORS = ["none", "bloom", "perfect"]
LABELS = {"none": "No-Prediction", "bloom": "Bloom-Filter", "perfect": "Perfect-Prediction"}


def test_fig13_hit_miss_prediction():
    """Regenerate Figure 13: Bloom-filter prediction is close to perfect prediction."""

    def build():
        rows = {}
        for app in BENCH_MEMORY_BOUND:
            base = evaluate_application("BL", app, fidelity=BENCH_FIDELITY)
            rows[app] = {}
            for predictor in PREDICTORS:
                name = "Morpheus-Basic" if predictor == "bloom" else f"Morpheus-Basic({predictor})"
                stats = evaluate_application(name, app, fidelity=BENCH_FIDELITY)
                rows[app][predictor] = stats.normalized_execution_time(base)
        return rows

    rows = build()

    table = [[app, row["none"], row["bloom"], row["perfect"]] for app, row in rows.items()]
    gmeans = {p: geometric_mean([row[p] for row in rows.values()]) for p in PREDICTORS}
    table.append(["gmean", gmeans["none"], gmeans["bloom"], gmeans["perfect"]])
    print("\n" + format_table(
        ["app", LABELS["none"], LABELS["bloom"], LABELS["perfect"]], table,
        title="[Figure 13] Normalized execution time vs hit/miss predictor (lower is better)",
    ))

    # The Bloom-filter design is at least as good as no prediction and within
    # a few percent of perfect prediction (paper: 9 % and 1 %).
    assert gmeans["bloom"] <= gmeans["none"] * 1.02
    assert gmeans["bloom"] <= gmeans["perfect"] * 1.08
