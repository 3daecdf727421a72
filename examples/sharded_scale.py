"""Scaling the collection path: batched OUE and the sharded curator.

The synthesis half of the pipeline was vectorized first
(`VectorizedSynthesizer`); this example exercises the matching collection
engines:

* ``oracle_mode="exact"`` perturbs all reports as one Bernoulli batch per
  timestamp (the literal protocol, minus the per-user Python loop);
* ``RetraSynConfig(n_shards=K)`` hash-partitions users across K independent
  collection shards whose aggregated counts merge before the global
  mobility model is built — ``shard_executor="distributed"`` runs each
  shard in its own worker process;
* ``engine="vectorized"`` runs the columnar synthesis plane: DMU-dirtied
  model rows recompile in place and streams live in the struct-of-arrays
  ``TrajectoryStore``
  (``synthesis_shards=K`` additionally spreads generation over K threads
  on multi-core hosts).

The privacy ledger is verified for every engine: sharding never lets a
user double-spend inside a w-window, because each user lives in exactly
one shard.

Run:  python examples/sharded_scale.py
"""

import time

from repro import RetraSyn, RetraSynConfig, load_dataset
from repro.metrics.density import density_error


def main() -> None:
    data = load_dataset("oldenburg", scale=0.03, seed=0)
    print(f"stream: {len(data)} users, {data.n_timestamps} timestamps\n")
    print(f"{'engine':<34} {'user_side s/t':>13} {'density':>8} {'audit':>6}")

    engines = [
        ("fast (binomial counts)", dict(oracle_mode="fast")),
        ("exact (batched)", dict(oracle_mode="exact")),
        ("exact + 4 shards", dict(oracle_mode="exact", n_shards=4)),
        (
            "exact + 4 shards, distributed",
            dict(oracle_mode="exact", n_shards=4, shard_executor="distributed"),
        ),
        (
            "exact + vectorized synthesis",
            dict(oracle_mode="exact", engine="vectorized"),
        ),
    ]
    for label, overrides in engines:
        cfg = RetraSynConfig(epsilon=1.0, w=10, seed=0, **overrides)
        tic = time.perf_counter()
        run = RetraSyn(cfg).run(data)
        elapsed = time.perf_counter() - tic
        assert run.accountant.verify(), label
        print(
            f"{label:<34} "
            f"{run.timings['user_side'] / data.n_timestamps:>13.6f} "
            f"{density_error(data, run.synthetic):>8.4f} "
            f"{'ok':>6}   (total {elapsed:.2f}s)"
        )

    print(
        "\nAll engines satisfy the same w-event epsilon-LDP ledger; pick by "
        "population size:\n  fast mode for simulation, batched exact for "
        "protocol-faithful cost models,\n  shards once a single core no "
        "longer keeps up with the report volume."
    )


if __name__ == "__main__":
    main()
