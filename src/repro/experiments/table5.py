"""Table V: component efficiency of RetraSyn_p.

Average per-timestamp seconds for the four pipeline components:
user-side computation, mobility-model construction, dynamic mobility
update, and real-time synthesis.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.runner import ExperimentSetting, make_method, standard_datasets

COMPONENTS = ("user_side", "model_construction", "dmu", "synthesis", "total")


def run_table5(
    setting: ExperimentSetting = ExperimentSetting(),
    datasets: Optional[Sequence[str]] = None,
    oracle_mode: str = "exact",
    **engine_overrides,
) -> dict:
    """``results[dataset][component] -> avg seconds per timestamp``.

    ``oracle_mode='exact'`` materialises per-user bit vectors (batched) so
    the user-side figure reflects the real protocol cost; ``'fast'`` draws
    the one-counts from their binomial law instead.
    Extra keyword arguments (``engine=``, ``n_shards=``, …) are forwarded
    to :class:`~repro.core.retrasyn.RetraSynConfig`, so engine speedups are
    measured with the same harness as the paper's Table V.
    """
    data = standard_datasets(setting, datasets)
    results: dict = {}
    for name, dataset in data.items():
        algo = make_method(
            "RetraSyn_p",
            epsilon=setting.epsilon,
            w=setting.w,
            seed=setting.seed,
            oracle_mode=oracle_mode,
            **engine_overrides,
        )
        run = algo.run(dataset)
        results[name] = run.avg_time_per_timestamp()
    return results


def format_table5(results: dict) -> str:
    datasets = list(results)
    name_w = 24
    lines = [
        "Table V — component efficiency of RetraSyn_p (seconds/timestamp)",
        "=" * 66,
        f"{'procedure':<{name_w}}" + "".join(f"{d:>14}" for d in datasets),
    ]
    for comp in COMPONENTS:
        row = f"{comp:<{name_w}}"
        for d in datasets:
            row += f"{results[d].get(comp, 0.0):>14.6f}"
        lines.append(row)
    return "\n".join(lines)


def main() -> None:  # pragma: no cover
    print(format_table5(run_table5()))


if __name__ == "__main__":  # pragma: no cover
    main()
