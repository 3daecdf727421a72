"""`repro serve`: run the curator as an ingestion service over a dataset.

The batch path (`repro run`) hands the curator a finished dataset.  This
module instead *replays* the dataset as a report stream through an
:class:`~repro.api.session.IngestSession` — the session the HTTP ingress
(`repro serve --http`) drives from remote clients — which is the shape of
a real deployment: one report batch per timestamp, out-of-order arrival
(optional shuffling inside the watermark window), watermark-based
timestamp closing, and periodic checkpoints that a crashed or restarted
service resumes from bit for bit.

Programmatic use::

    spec = SessionSpec(epsilon=1.0, w=20, max_lateness=2, seed=0)
    outcome = serve_dataset(data, spec, shuffle=True)
    outcome.run.synthetic     # same SynthesisRun a batch run produces
    outcome.stats             # ingestion counters (lateness, checkpoints)
"""

from __future__ import annotations

import contextlib
import signal
import threading
import time
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from repro.api.session import (
    CuratorSession,
    IngestSession,
    create_session,
    load_session,
)
from repro.api.specs import SERVICE_FIELDS, SessionSpec
from repro.core.persistence import checkpoint_exists
from repro.core.retrasyn import SynthesisRun
from repro.geo.trajectory import average_length
from repro.stream.ingest import IngestStats
from repro.stream.reports import ColumnarStreamView, ReportBatch
from repro.stream.stream import StreamDataset


@dataclass
class ServeOutcome:
    """What one service run produced."""

    run: SynthesisRun
    stats: IngestStats
    resumed_from_t: Optional[int] = None
    wall_seconds: float = 0.0

    def report_lines(self) -> list[str]:
        s = self.stats
        lines = [
            f"timestamps processed   {s.n_timestamps}",
            f"reports ingested       {s.n_submitted}",
            f"reports processed      {s.n_reports_processed}",
            f"late reports dropped   {s.n_late_dropped}",
            f"checkpoints written    {s.checkpoints_written}",
            f"wall seconds           {self.wall_seconds:.3f}",
        ]
        if self.wall_seconds > 0:
            lines.append(
                f"throughput             "
                f"{s.n_reports_processed / self.wall_seconds:,.0f} reports/s"
            )
        if self.resumed_from_t is not None:
            lines.insert(0, f"resumed at t={self.resumed_from_t}")
        return lines


def open_session(
    data: StreamDataset, spec: SessionSpec, *, resume: bool = False
) -> CuratorSession:
    """The session `repro serve` runs, replayed or behind ``--http``.

    ``data`` supplies the grid and, unless ``spec.lam`` is set, λ (its
    average trajectory length).  ``resume`` reopens the checkpoint at
    ``spec.checkpoint_path`` instead of starting fresh.
    """
    if not resume:
        lam = spec.lam
        if lam is None:
            lam = max(1.0, average_length(data.trajectories))
        return create_session(spec, data.grid, lam=lam)
    path = spec.checkpoint_path
    if not path:
        raise ValueError("--resume requires --checkpoint")
    if not checkpoint_exists(path):
        raise FileNotFoundError(f"no checkpoint to resume from: {path}")
    # Every other field comes from the checkpoint's stored spec (the
    # flags of *this* invocation may be defaults that misdescribe the
    # restored engine); only the service fields follow the current flags.
    return load_session(
        path, **{name: getattr(spec, name) for name in SERVICE_FIELDS}
    )


@contextlib.contextmanager
def _stop_on_signals() -> Iterator[threading.Event]:
    """An event that SIGTERM/SIGINT set while the block runs.

    Handlers can only be installed from the main thread; elsewhere the
    event is never set.  The previous handlers come back on exit.
    """
    stopped = threading.Event()
    previous = {}
    if threading.current_thread() is threading.main_thread():
        for sig in (signal.SIGTERM, signal.SIGINT):
            previous[sig] = signal.signal(sig, lambda *_: stopped.set())
    try:
        yield stopped
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, signal.SIG_DFL if handler is None else handler)


def _arrivals(
    view: ColumnarStreamView,
    start_t: int,
    block: int,
    shuffle_rng: Optional[np.random.Generator],
) -> Iterator[tuple[int, ReportBatch]]:
    """``(t, batch)`` for every non-empty timestamp from ``start_t`` on.

    ``shuffle_rng`` permutes the timestamp order inside each block of
    ``block`` timestamps and the rows of each batch.  A quiet timestamp
    sends nothing; it closes as an empty round once a later one arrives.
    """
    end = view.n_timestamps
    for t0 in range(start_t, end, block):
        ts = np.arange(t0, min(t0 + block, end))
        if shuffle_rng is not None:
            ts = shuffle_rng.permutation(ts)
        for t in ts.tolist():
            batch = view.batch_at(t)
            if shuffle_rng is not None:
                batch = batch.take(shuffle_rng.permutation(len(batch)))
            if len(batch):
                yield t, batch


def replay(
    session: IngestSession,
    view: ColumnarStreamView,
    *,
    shuffle_rng: Optional[np.random.Generator] = None,
) -> IngestStats:
    """Feed ``view`` through an ingest ``session`` and close it.

    Starts at the session's next open timestamp (0, or where a resumed
    checkpoint stopped).  Each timestamp's batch goes in through
    ``submit_batch``, followed by ``advance``.  ``shuffle_rng`` permutes
    arrivals inside blocks of ``max_lateness + 1`` timestamps, so every
    batch lands inside the lateness window: nothing is dropped, and the
    assembler's canonical row order makes the output identical to an
    in-order replay.

    SIGTERM/SIGINT (on the main thread) stop the feed after the in-flight
    round.  The session then closes only watermark-complete timestamps,
    so its final checkpoint lands on a timestamp boundary and a resumed
    replay, which re-reads the tail from the dataset, is bit-identical
    to an uninterrupted one.  Otherwise ``close`` flushes everything fed.
    """
    arrivals = _arrivals(
        view, session.assembler.next_t, session.spec.max_lateness + 1, shuffle_rng
    )
    with _stop_on_signals() as stopped:
        for t, batch in arrivals:
            session.submit_batch(t, batch)
            session.advance()
            if stopped.is_set():
                break
        session.close(flush_partial=not stopped.is_set())
    return session.ingest_stats


def serve_dataset(
    data: StreamDataset,
    spec: SessionSpec,
    *,
    shuffle: bool = False,
    shuffle_seed: int = 0,
    resume: bool = False,
) -> ServeOutcome:
    """Replay ``data`` through an ingest session and package the run.

    The spec's service fields shape the service (its transport is forced to
    ``"ingest"``); ``shuffle`` permutes arrival order inside the lateness
    window, and ``resume`` continues from the spec's checkpoint.
    """
    spec = replace(spec, transport="ingest")
    session = open_session(data, spec, resume=resume)
    curator = session.curator
    resumed_from_t = session.assembler.next_t if resume else None

    view = ColumnarStreamView(data, curator.space)
    shuffle_rng = np.random.default_rng(shuffle_seed) if shuffle else None
    start = time.perf_counter()
    try:
        stats = replay(session, view, shuffle_rng=shuffle_rng)
    finally:
        curator.close()
    wall = time.perf_counter() - start

    run = curator.result(
        data.n_timestamps,
        name=f"{curator.config.label}(serve:{data.name})",
        total_runtime=wall,
    )
    return ServeOutcome(
        run=run, stats=stats, resumed_from_t=resumed_from_t, wall_seconds=wall
    )
