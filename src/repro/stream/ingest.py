"""Ingestion front-end: out-of-order report batches → closed timestamps.

The batch pipeline replays a finished dataset, but a *deployed* curator is
a service: reports arrive continuously, slightly out of order, and the
server must close each timestamp, aggregate, update the model and
synthesize before moving on.  Every way in — the HTTP ingress, the
``repro serve`` replay, in-process sessions — submits columnar
:class:`~repro.stream.reports.ReportBatch` objects, one timestamp each,
to the one reordering core here:

* :class:`TimestampAssembler` — pure, sans-IO.  Buffers batches per
  timestamp, advances a *watermark* ``max_seen_t − max_lateness`` and
  closes every timestamp at or below it, emitting columnar batches in
  strict timestamp order.  Batches for an already-closed timestamp are
  dropped and their rows counted (the usual streaming late-data policy).
  Closed batches are sorted by user id, giving the curator a canonical
  row order that is independent of arrival order — so a fixed seed
  yields the same synthetic stream no matter how the network shuffled
  the reports.
* :class:`IngestStats` — the counters an
  :class:`~repro.api.session.IngestSession` keeps while it drives the
  assembler.

How many rows wait inside the open watermark window is the assembler's
``backlog`` (and ``backlog_high_water``); that is the number to watch
when closes fall behind arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.stream.reports import KIND_ENTER, KIND_QUIT, ReportBatch


@dataclass(frozen=True)
class ClosedTimestamp:
    """Everything the curator needs for one closed collection round."""

    t: int
    batch: ReportBatch
    newly_entered: np.ndarray
    quitted: np.ndarray
    n_active: int


@dataclass
class IngestStats:
    """Counters the service exposes for monitoring."""

    n_submitted: int = 0
    n_late_dropped: int = 0
    n_timestamps: int = 0
    n_reports_processed: int = 0
    checkpoints_written: int = 0


class TimestampAssembler:
    """Reorders out-of-order report batches into closed timestamps.

    Parameters
    ----------
    space:
        Transition-state space the batches' state indices refer to.
    start_t:
        First timestamp to emit (``curator._last_t + 1`` when resuming).
    max_lateness:
        Reorder bound: a report for timestamp ``t`` may still arrive as
        long as no report for any ``t' > t + max_lateness`` has been seen.
        ``0`` means arrivals are timestamp-ordered (reports within one
        timestamp may interleave freely); ``t`` then closes the moment a
        report for ``t+1`` arrives.  Reports that violate the bound are
        dropped — and if a user's *enter* report is among them, their later
        movement reports reference a user the tracker never met, which the
        curator rejects.  Size the bound to the transport's real skew.
    """

    def __init__(self, space, start_t: int = 0, max_lateness: int = 0) -> None:
        if max_lateness < 0:
            raise ConfigurationError(
                f"max_lateness must be >= 0, got {max_lateness}"
            )
        self.space = space
        self.max_lateness = int(max_lateness)
        self._next_t = int(start_t)
        self._max_seen = int(start_t) - 1
        # Per-timestamp batches in arrival order, buffered as-is (batches
        # decoded straight off the wire are never copied before close).
        self._buffers: dict[int, list[ReportBatch]] = {}
        self.n_late_dropped = 0
        self._n_buffered = 0
        #: Most rows ever buffered at once — the assembler's queue-depth
        #: high-water mark.
        self.backlog_high_water = 0

    # ------------------------------------------------------------------ #
    # feeding
    # ------------------------------------------------------------------ #
    def add_batch(self, t: int, batch: ReportBatch) -> int:
        """Buffer one timestamp's pre-encoded reports.

        The batch is buffered *as-is* and concatenated with its
        timestamp's other batches at close, where one stable uid sort
        restores the canonical order.  Returns the number of rows
        buffered (0 when the whole batch is late).
        """
        t = int(t)
        if t < self._next_t:
            self.n_late_dropped += len(batch)
            return 0
        if len(batch):
            self._buffers.setdefault(t, []).append(batch)
            self._track_buffered(len(batch))
        if t > self._max_seen:
            self._max_seen = t
        return len(batch)

    # ------------------------------------------------------------------ #
    # closing
    # ------------------------------------------------------------------ #
    @property
    def watermark(self) -> int:
        """Largest timestamp that is safe to close.

        Seeing a report for ``max_seen`` promises nothing about timestamps
        within ``max_lateness`` of it — including ``max_seen`` itself, whose
        own reports are still arriving — hence the additional ``− 1``.
        """
        return self._max_seen - self.max_lateness - 1

    @property
    def next_t(self) -> int:
        return self._next_t

    @property
    def watermark_lag(self) -> int:
        """Timestamps seen in the stream but not yet closed.

        Zero when fully caught up; under steady traffic it hovers around
        ``max_lateness + 1`` (the window the watermark holds open), and a
        growing value means closing has fallen behind arrival.
        """
        return max(0, self._max_seen - self._next_t + 1)

    def pop_ready(self) -> list[ClosedTimestamp]:
        """Close every timestamp at or below the watermark, in order.

        Timestamps with no buffered reports still close (as empty rounds)
        so the curator's consecutive-timestamp invariant holds across
        quiet periods.
        """
        out: list[ClosedTimestamp] = []
        while self._next_t <= self.watermark:
            out.append(self._close(self._next_t))
            self._next_t += 1
        return out

    def flush(self) -> list[ClosedTimestamp]:
        """Close everything buffered (end of stream)."""
        out: list[ClosedTimestamp] = []
        while self._next_t <= self._max_seen:
            out.append(self._close(self._next_t))
            self._next_t += 1
        return out

    def _track_buffered(self, n: int) -> None:
        """Maintain the backlog counter and its high-water mark."""
        self._n_buffered += n
        if self._n_buffered > self.backlog_high_water:
            self.backlog_high_water = self._n_buffered

    @property
    def backlog(self) -> int:
        """Rows currently buffered and awaiting their timestamp's close."""
        return self._n_buffered

    def _close(self, t: int) -> ClosedTimestamp:
        batches = self._buffers.pop(t, [])
        self._n_buffered -= sum(len(b) for b in batches)
        if not batches:
            merged = ReportBatch.empty()
        elif len(batches) == 1:
            merged = batches[0]
        else:
            merged = ReportBatch(
                np.concatenate([b.user_ids for b in batches]),
                np.concatenate([b.state_idx for b in batches]),
                np.concatenate([b.kinds for b in batches]),
            )
        # Canonical row order: stable sort of the arrival-order
        # concatenation by user id, so the batch (and therefore the
        # curator's RNG consumption) is arrival-order independent.
        batch = merged.take(np.argsort(merged.user_ids, kind="stable"))
        return ClosedTimestamp(
            t=t,
            batch=batch,
            newly_entered=batch.user_ids[batch.kinds == KIND_ENTER],
            quitted=batch.user_ids[batch.kinds == KIND_QUIT],
            n_active=int((batch.kinds != KIND_QUIT).sum()),
        )
