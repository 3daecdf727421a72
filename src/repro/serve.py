"""`repro serve`: run the curator as an ingestion service over a dataset.

The batch path (`repro run`) hands the curator a finished dataset.  This
module instead *replays* the dataset as a live report stream through the
async ingestion front-end (:mod:`repro.stream.ingest`), which is the shape
of a real deployment: a bounded ingress queue with backpressure,
out-of-order arrival (optional shuffling inside the watermark window),
watermark-based timestamp closing, and periodic checkpoints that a crashed
or restarted service resumes from bit-for-bit.

Programmatic use::

    spec = SessionSpec(epsilon=1.0, w=20, max_lateness=2, seed=0)
    outcome = serve_dataset(data, spec, shuffle=True)
    outcome.run.synthetic     # same SynthesisRun a batch run produces
    outcome.stats             # ingestion counters (lateness, backpressure)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.api.session import CuratorSession, create_session, load_session
from repro.api.specs import SERVICE_FIELDS, SessionSpec
from repro.core.persistence import checkpoint_exists
from repro.core.retrasyn import SynthesisRun
from repro.geo.trajectory import average_length
from repro.stream.ingest import IngestStats, dataset_reports, ingest_events
from repro.stream.reports import ColumnarStreamView
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
            f"backpressure waits     {s.backpressure_waits}",
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


def serve_dataset(
    data: StreamDataset,
    spec: SessionSpec,
    *,
    shuffle: bool = False,
    shuffle_seed: int = 0,
    resume: bool = False,
) -> ServeOutcome:
    """Replay ``data`` through the ingestion service and package the run.

    The spec's service fields shape the service (its transport is forced to
    ``"ingest"``); ``shuffle`` permutes arrival order inside the lateness
    window, and ``resume`` continues from the spec's checkpoint.
    """
    spec = replace(spec, transport="ingest")
    session = open_session(data, spec, resume=resume)
    curator = session.curator
    resumed_from_t = curator._last_t + 1 if resume else None

    view = ColumnarStreamView(data, curator.space)
    shuffle_rng = np.random.default_rng(shuffle_seed) if shuffle else None
    reports = dataset_reports(
        view,
        start_t=resumed_from_t or 0,
        shuffle_rng=shuffle_rng,
        block=spec.max_lateness + 1,
    )

    start = time.perf_counter()
    try:
        stats = ingest_events(session, reports)
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
