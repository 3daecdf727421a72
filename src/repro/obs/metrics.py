"""A minimal Prometheus-compatible metrics registry (stdlib only).

Three metric kinds — counters, gauges, histograms — each optionally
labelled, rendered in the text exposition format (``text/plain;
version=0.0.4``). Counters and gauges can be *projected* from existing
state via ``set_function``: the callback is evaluated at scrape time, so
hot paths pay nothing and the registry never duplicates bookkeeping the
engines already do (``IngestStats``, accountant ledgers, curator phase
timings). A callback that raises drops only its own sample from the
scrape — a dead shard pool must not take ``/metrics`` down with it.

The registry lives on the session object, never on the curator: metrics
are process-local, and a checkpoint holds only the curator's declared
component state.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError

__all__ = ["DEFAULT_BUCKETS", "PROMETHEUS_CONTENT_TYPE", "MetricsRegistry"]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Latency buckets (seconds) sized for sub-millisecond rounds at smoke
#: scale up to multi-second rounds at millions of users.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0, 30.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 2**53:
        return str(int(value))
    return repr(value)


def _label_suffix(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    parts = [
        f'{n}="{_escape_label_value(v)}"' for n, v in zip(names, values)
    ]
    return "{" + ",".join(parts) + "}"


class _ValueChild:
    """A single counter/gauge time series: stored value or callback."""

    __slots__ = ("_value", "_fn", "_lock", "_monotonic")

    def __init__(self, monotonic: bool):
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None
        self._lock = threading.Lock()
        self._monotonic = monotonic

    def inc(self, amount: float = 1.0) -> None:
        if self._monotonic and amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    def set(self, value: float) -> None:
        if self._monotonic:
            raise ConfigurationError("counters cannot be set, only inc()ed")
        with self._lock:
            self._value = float(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Project this series from existing state, evaluated at scrape."""
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class _HistogramChild:
    """A single histogram series: bucket counts, sum and count."""

    __slots__ = ("_bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(self, bounds: Tuple[float, ...]):
        self._bounds = bounds
        self._counts = [0] * len(bounds)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._sum += value
            self._count += 1
            # Per-bucket counts; render() accumulates into the cumulative
            # `le` series the exposition format wants.
            for i, bound in enumerate(self._bounds):
                if value <= bound:
                    self._counts[i] += 1
                    break

    def snapshot(self) -> Tuple[List[int], float, int]:
        with self._lock:
            return list(self._counts), self._sum, self._count


class _Family:
    """One named metric with zero or more labelled children."""

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Tuple[str, ...],
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        if not _NAME_RE.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise ConfigurationError(f"invalid label name {label!r}")
        if kind == "histogram":
            buckets = tuple(sorted(float(b) for b in buckets))
            if not buckets:
                raise ConfigurationError("histogram needs at least one bucket")
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = labelnames
        self._buckets = buckets
        self._children: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def _make_child(self):
        if self.kind == "counter":
            return _ValueChild(monotonic=True)
        if self.kind == "gauge":
            return _ValueChild(monotonic=False)
        return _HistogramChild(self._buckets)

    def labels(self, *values) -> object:
        if len(values) != len(self.labelnames):
            raise ConfigurationError(
                f"metric {self.name!r} takes {len(self.labelnames)} label "
                f"value(s), got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
            return child

    # Unlabelled convenience: a family with no label names behaves as a
    # single series, so call sites read ``registry.counter(...).inc()``.
    def _sole(self):
        if self.labelnames:
            raise ConfigurationError(
                f"metric {self.name!r} is labelled; use .labels(...)"
            )
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._sole().inc(amount)

    def set(self, value: float) -> None:
        self._sole().set(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._sole().set_function(fn)

    def observe(self, value: float) -> None:
        self._sole().observe(value)

    def render(self) -> Iterable[str]:
        yield f"# HELP {self.name} {_escape_help(self.help)}"
        yield f"# TYPE {self.name} {self.kind}"
        with self._lock:
            children = sorted(self._children.items())
        for key, child in children:
            suffix = _label_suffix(self.labelnames, key)
            try:
                if self.kind == "histogram":
                    counts, total, count = child.snapshot()
                    cumulative = 0
                    for bound, n in zip(self._buckets, counts):
                        cumulative += n
                        le = _label_suffix(
                            self.labelnames + ("le",),
                            key + (_format_value(bound),),
                        )
                        yield f"{self.name}_bucket{le} {cumulative}"
                    le = _label_suffix(
                        self.labelnames + ("le",), key + ("+Inf",)
                    )
                    yield f"{self.name}_bucket{le} {count}"
                    yield f"{self.name}_sum{suffix} {_format_value(total)}"
                    yield f"{self.name}_count{suffix} {count}"
                else:
                    value = child.value  # may invoke a callback
                    yield f"{self.name}{suffix} {_format_value(value)}"
            except Exception:
                # A broken callback (dead pool, closed session) drops its
                # own sample; the rest of the scrape must survive.
                continue


class MetricsRegistry:
    """Create-or-get metric families and render the exposition text."""

    def __init__(self):
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _family(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Sequence[str],
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> _Family:
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.labelnames != labelnames:
                    raise ConfigurationError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            family = _Family(name, help_text, kind, labelnames, buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> _Family:
        return self._family(name, help_text, "counter", labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> _Family:
        return self._family(name, help_text, "gauge", labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> _Family:
        return self._family(name, help_text, "histogram", labelnames, buckets)

    def render(self) -> str:
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        lines: List[str] = []
        for family in families:
            lines.extend(family.render())
        return "\n".join(lines) + "\n" if lines else ""
