"""Observability: the internal metrics registry behind ``GET /metrics``.

Stdlib-only. The registry is owned by the session layer (never part of a
checkpoint) and rendered in the Prometheus text exposition format
by the HTTP ingress.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DEFAULT_BUCKETS": "metrics",
    "PROMETHEUS_CONTENT_TYPE": "metrics",
    "MetricsRegistry": "metrics",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
