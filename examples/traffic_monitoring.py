"""Real-time traffic monitoring on privately synthesized streams.

The paper's motivating application (Section I): a traffic authority wants
live congestion statistics from vehicle streams, but the vehicles will not
share raw locations.  RetraSyn maintains a synthetic database whose density
tracks the real stream; all monitoring queries run on the synthetic data at
zero extra privacy cost (post-processing).

This example:
1. streams an Oldenburg-style road-network dataset through RetraSyn;
2. at every 10th timestamp, finds the top-3 busiest cells ("congestion
   hotspots") in the synthetic database and compares them with the truth;
3. answers a fixed spatial range query ("vehicles currently downtown")
   over time and reports the tracking error.

Run:  python examples/traffic_monitoring.py
"""

import numpy as np

from repro import RetraSyn, RetraSynConfig, load_dataset
from repro.geo.point import BoundingBox


def top_cells(counts: np.ndarray, n: int = 3) -> list[int]:
    return np.argsort(counts)[::-1][:n].tolist()


def main() -> None:
    data = load_dataset("oldenburg", scale=0.03, seed=0)
    print(f"monitoring {data.stats()['size']} vehicle streams "
          f"over {data.n_timestamps} timestamps")

    run = RetraSyn(RetraSynConfig(epsilon=1.0, w=10, seed=0)).run(data)
    syn = run.synthetic
    assert run.accountant.verify(), "privacy guarantee violated!"

    real_counts = data.cell_counts_matrix()
    syn_counts = syn.cell_counts_matrix()

    # --- live hotspot detection -------------------------------------- #
    print("\nlive congestion hotspots (synthetic vs real, every 10th t):")
    hits = total = 0
    for t in range(0, data.n_timestamps, 10):
        if real_counts[t].sum() == 0:
            continue
        real_top = top_cells(real_counts[t])
        syn_top = top_cells(syn_counts[t])
        overlap = len(set(real_top) & set(syn_top))
        hits += overlap
        total += 3
        print(f"  t={t:4d}  real top-3 {real_top}  synthetic top-3 {syn_top}"
              f"  overlap {overlap}/3")
    print(f"hotspot hit rate: {hits}/{total} = {hits / max(1, total):.0%}")

    # --- downtown occupancy tracking ---------------------------------- #
    bbox = data.grid.bbox
    downtown = BoundingBox(
        bbox.min_x + 0.35 * bbox.width,
        bbox.min_y + 0.35 * bbox.height,
        bbox.min_x + 0.65 * bbox.width,
        bbox.min_y + 0.65 * bbox.height,
    )
    cells = np.asarray(data.grid.cells_in_region(downtown))
    real_series = real_counts[:, cells].sum(axis=1)
    syn_series = syn_counts[:, cells].sum(axis=1)
    mask = real_series > 0
    rel_err = np.abs(real_series[mask] - syn_series[mask]) / real_series[mask]
    print(f"\ndowntown occupancy tracking over {mask.sum()} timestamps:")
    print(f"  mean relative error  {rel_err.mean():.3f}")
    print(f"  p90 relative error   {np.quantile(rel_err, 0.9):.3f}")


if __name__ == "__main__":
    main()
