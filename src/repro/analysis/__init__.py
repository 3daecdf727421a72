"""Downstream analysis toolkit over (synthetic) trajectory databases.

The whole point of synthesis-based release (paper Section I, Challenge I)
is that the curator can answer *arbitrary* location-based analyses on the
synthetic database without further privacy cost.  The analyses themselves
are the utility metrics of :mod:`repro.metrics` (range queries, hotspots,
transitions, ...); this package holds :mod:`~repro.analysis.comparison`,
the side-by-side fidelity report between a real and a synthetic database
that ``repro evaluate`` prints, and the repo's own static analyzer
(:mod:`repro.analysis.lint`).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "fidelity_report": "comparison",
    "format_fidelity_report": "comparison",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
