"""Jensen–Shannon divergence, the workhorse distance of Section V-B.

Natural-log JSD is bounded by ``ln 2 ≈ 0.6931`` — the ceiling visible in the
paper's Length Error rows for baselines whose synthetic distribution shares
no support with the real one.
"""

from __future__ import annotations

import numpy as np

LN2 = float(np.log(2.0))


def _normalize(p: np.ndarray) -> np.ndarray:
    p = np.clip(np.asarray(p, dtype=float), 0.0, None)
    total = p.sum()
    if total <= 0.0:
        return np.full(p.shape, 1.0 / p.size)
    return p / total


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) in nats; contributions with ``p_i = 0`` are zero."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def jensen_shannon_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """JSD(p, q) in nats over a shared support; inputs are renormalised.

    Both inputs may be unnormalised count vectors.  An all-zero vector is
    treated as uniform (the convention used for empty timestamps).
    """
    p = _normalize(p)
    q = _normalize(q)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    m = 0.5 * (p + q)
    # A subnormal entry halves to exactly 0; it contributes nothing.
    keep = m > 0.0
    p, q, m = p[keep], q[keep], m[keep]
    return 0.5 * kl_divergence(p, m) + 0.5 * kl_divergence(q, m)


def jsd_from_counts(
    counts_a: dict, counts_b: dict
) -> float:
    """JSD between two sparse count dictionaries over their support union."""
    support = sorted(set(counts_a) | set(counts_b))
    if not support:
        return 0.0
    a = np.asarray([counts_a.get(s, 0) for s in support], dtype=float)
    b = np.asarray([counts_b.get(s, 0) for s in support], dtype=float)
    return jensen_shannon_divergence(a, b)
