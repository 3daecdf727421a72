"""Kendall's tau on overall cell popularity (historical metric).

Counts every point of every trajectory per cell across the whole horizon in
both databases and reports the Kendall rank-correlation coefficient between
the two count vectors.  1.0 means the synthetic database preserves the
popularity ranking of locations perfectly; values near 0 (or negative) mean
the ranking is destroyed — the signature of the NoEQ ablation in Table IV.
"""

from __future__ import annotations

from repro.stream.stream import StreamDataset


def kendall_tau(real: StreamDataset, syn: StreamDataset) -> float:
    """Kendall-tau correlation of per-cell total visit counts."""
    # Imported here so serving processes, which never evaluate, skip scipy.
    from scipy import stats

    real_counts = real.cell_counts_matrix().sum(axis=0)
    syn_counts = syn.cell_counts_matrix().sum(axis=0)
    if real_counts.std() == 0 or syn_counts.std() == 0:
        return 0.0
    tau = stats.kendalltau(real_counts, syn_counts).statistic
    return float(tau) if tau == tau else 0.0  # NaN -> 0
