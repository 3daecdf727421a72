"""Utility metrics (paper Section V-B).

Streaming metrics — global level:

* :func:`~repro.metrics.density.density_error` — per-timestamp JSD of the
  spatial density distribution;
* :func:`~repro.metrics.query.query_error` — mean relative error of random
  spatio-temporal range queries over windows of size φ (with sanity bound);
* :func:`~repro.metrics.hotspot.hotspot_ndcg` — NDCG@n_h of the most
  popular cells within random time ranges.

Streaming metrics — semantic level:

* :func:`~repro.metrics.transition.transition_error` — per-timestamp JSD of
  the single-step transition distribution;
* :func:`~repro.metrics.pattern.pattern_f1` — F1 overlap of the top-N
  frequent high-order movement patterns in random time ranges.

Historical (trajectory-level) metrics:

* :func:`~repro.metrics.kendall.kendall_tau` — rank correlation of overall
  cell popularity;
* :func:`~repro.metrics.trip.trip_error` — JSD of the joint (start, end)
  cell distribution;
* :func:`~repro.metrics.length.length_error` — JSD of the binned
  travel-distance distribution.

``metrics.registry`` evaluates any subset of these uniformly.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "jensen_shannon_divergence": "divergence",
    "density_error": "density",
    "query_error": "query",
    "hotspot_ndcg": "hotspot",
    "transition_error": "transition",
    "pattern_f1": "pattern",
    "kendall_tau": "kendall",
    "trip_error": "trip",
    "length_error": "length",
    "ALL_METRICS": "registry",
    "HIGHER_IS_BETTER": "registry",
    "evaluate_all": "registry",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
