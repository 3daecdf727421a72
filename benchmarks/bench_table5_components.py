"""Table V: component efficiency of RetraSyn_p.

Shape to verify: real-time synthesis dominates the per-timestamp cost and
mobility-model construction / DMU are negligible, as in the paper.
"""

from _util import run_once

from repro.experiments.table5 import format_table5, run_table5


def test_table5_components(benchmark, bench_setting, save_artifact):
    results = run_once(
        benchmark,
        run_table5,
        bench_setting,
        datasets=("tdrive", "oldenburg", "sanjoaquin"),
        oracle_mode="exact",  # batched literal protocol (engine default)
    )
    save_artifact("table5_components", format_table5(results))
    for dataset, comps in results.items():
        assert comps["synthesis"] >= comps["dmu"], dataset
        assert comps["synthesis"] >= comps["model_construction"], dataset
        assert comps["total"] > 0, dataset


def test_table5_collection_engines(benchmark, bench_setting, save_artifact):
    """Table V user-side column across collection engines, measured not claimed."""

    def run_engines():
        out = {}
        out["fast"] = run_table5(
            bench_setting, datasets=("tdrive",), oracle_mode="fast"
        )
        out["exact"] = run_table5(
            bench_setting, datasets=("tdrive",), oracle_mode="exact"
        )
        out["exact+4shards"] = run_table5(
            bench_setting, datasets=("tdrive",), oracle_mode="exact", n_shards=4
        )
        return out

    out = run_once(benchmark, run_engines)
    lines = ["Table V user-side cost by collection engine (tdrive, s/timestamp)"]
    for label, results in out.items():
        lines.append(f"  {label:<14} {results['tdrive']['user_side']:.6f}")
    save_artifact("table5_collection_engines", "\n".join(lines))
