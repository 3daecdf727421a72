"""Arithmetic and bookkeeping of the round-cost benchmark.

Nothing here touches the system under test: percentiles with a sample-count
rule, spans with self time, failure shares, quartile summaries, the
two-set agreement verdict, the density error and run provenance.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

#: A percentile is only reported with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to stand behind it."""


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, refused when its tail is too thin.

    ``q`` must leave at least :data:`MIN_TAIL_SAMPLES` samples on its far
    side (above it for ``q >= 50``, below it otherwise); a p95 therefore
    needs 200 samples and a median 20.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be inside (0, 100), got {q}")
    n = len(values)
    tail = n * (min(q, 100.0 - q) / 100.0)
    if tail < MIN_TAIL_SAMPLES:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples has {tail:.1f} samples beyond it; "
            f"{MIN_TAIL_SAMPLES} are required"
        )
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def failed_share(failed: int, attempted: int) -> float:
    """Boundary calls that failed, as a share of those attempted."""
    if attempted <= 0:
        raise ValueError("failed_share needs at least one attempted call")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(statistics.median(values)), float(q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else math.inf


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``.

    Positive = worse, negative = better, whichever direction ``better`` names.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    change = (second - first) / first
    return change if better == "lower" else -change


def agreement(
    first: Sequence[float], second: Sequence[float], bound: float, better: str
) -> dict:
    """Compare two sets of runs of the same code against a metric's bound.

    A bound stands only if it is at least twice what the same code differs
    by between two sets, and no narrower than either set's own spread:

    * ``disagrees`` — the medians differ by more than the bound: the same
      code would be rejected as a regression of itself;
    * ``unresolved`` — either set's spread exceeds the bound, or twice the
      difference does: the benchmark cannot tell a regression of the
      bound's size from noise on this metric;
    * ``agrees`` — otherwise.
    """
    q1a, med_a, q3a = quartiles(first)
    q1b, med_b, q3b = quartiles(second)
    diff = worsening(med_a, med_b, better)
    widest = max(spread(first), spread(second))
    if abs(diff) > bound:
        verdict = "disagrees"
    elif widest > bound or 2.0 * abs(diff) > bound:
        verdict = "unresolved"
    else:
        verdict = "agrees"
    return {
        "first_median": med_a, "first_iqr": q3a - q1a,
        "second_median": med_b, "second_iqr": q3b - q1b,
        "difference": diff, "spread": widest, "bound": bound,
        "verdict": verdict,
    }


def jsd(p_counts, q_counts) -> float:
    """Jensen-Shannon divergence (base 2) between two count histograms."""
    p = np.asarray(p_counts, dtype=np.float64)
    q = np.asarray(q_counts, dtype=np.float64)
    if p.sum() <= 0 or q.sum() <= 0:
        return 1.0
    p, q = p / p.sum(), q / q.sum()
    m = 0.5 * (p + q)

    def _kl(a: np.ndarray) -> float:
        mask = a > 0
        return float((a[mask] * np.log2(a[mask] / m[mask])).sum())

    return 0.5 * _kl(p) + 0.5 * _kl(q)


# ---------------------------------------------------------------------- #
# spans
# ---------------------------------------------------------------------- #
class SpanRecorder:
    """In-memory spans: name, start, end, parent, round id ``t``.

    Spans nest through :meth:`span`; the recorder is single-threaded, like
    the benchmark's one driver thread.  Nothing is written until
    :meth:`write_jsonl`.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, t: Optional[int] = None) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "t": t,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def self_times(spans: Sequence[dict]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover.

    Children may overlap each other; the covered part is the union of
    their intervals clipped to the parent's.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[int, float] = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def self_ms_by_name(spans: Sequence[dict]) -> dict[str, list[float]]:
    """Self times in milliseconds, grouped by span name, in span order."""
    selfs = self_times(spans)
    out: dict[str, list[float]] = {}
    for s in spans:
        out.setdefault(s["name"], []).append(selfs[s["id"]] * 1e3)
    return out


# ---------------------------------------------------------------------- #
# provenance
# ---------------------------------------------------------------------- #
def provenance(repo_root: Path) -> dict:
    """Where and on what the numbers were measured."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo_root, text=True,
            capture_output=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "git_sha": sha,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
