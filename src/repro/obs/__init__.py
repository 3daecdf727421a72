"""Observability: the internal metrics registry behind ``GET /metrics``.

Stdlib-only. The registry is owned by the session layer (never part of a
checkpoint) and rendered in the Prometheus text exposition format
by the HTTP ingress.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "PROMETHEUS_CONTENT_TYPE",
    "MetricsRegistry",
]
