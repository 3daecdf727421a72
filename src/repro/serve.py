"""`repro serve`: run the curator as an ingestion service over a dataset.

The batch path (`repro run`) hands the curator a finished dataset.  This
module instead *replays* the dataset as a live report stream through the
async ingestion front-end (:mod:`repro.stream.ingest`), which is the shape
of a real deployment: a bounded ingress queue with backpressure,
out-of-order arrival (optional shuffling inside the watermark window),
watermark-based timestamp closing, and periodic checkpoints that a crashed
or restarted service resumes from bit-for-bit.

Programmatic use::

    outcome = serve_dataset(data, ServeSettings(config=cfg, shuffle=True))
    outcome.run.synthetic     # same SynthesisRun a batch run produces
    outcome.stats             # ingestion counters (lateness, backpressure)
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.api.specs import ServiceSpec, cli_field_names
from repro.core.online import OnlineRetraSyn
from repro.core.persistence import checkpoint_exists, load_checkpoint
from repro.core.retrasyn import RetraSynConfig, SynthesisRun
from repro.geo.trajectory import average_length
from repro.stream.ingest import IngestStats, dataset_reports, ingest_events
from repro.stream.reports import ColumnarStreamView
from repro.stream.stream import StreamDataset

#: ServiceSpec fields mirrored as flat ServeSettings kwargs — derived
#: from the spec's own CLI registry so a new CLI-exposed ServiceSpec
#: field is forwarded automatically instead of relying on someone
#: extending a hand-maintained tuple.  ServeSettings still needs the
#: matching ``Optional`` attribute; the ``spec-flag-drift`` lint rule
#: and ``tests/test_serve_settings.py`` both pin that.
_MIRRORED_SERVICE_FIELDS = cli_field_names(ServiceSpec)


@dataclass
class ServeSettings:
    """Everything `repro serve` needs besides the dataset.

    The deployment shape lives in one place — the ``service``
    :class:`~repro.api.specs.ServiceSpec` layer, where all validation
    also lives.  The flat fields (``queue_size`` … ``ingest_consumers``)
    are constructor conveniences: a non-``None`` value overrides the
    corresponding ``service`` field, and after construction each mirror
    reflects the resolved spec value, so both spellings read the same.
    """

    config: RetraSynConfig = field(default_factory=RetraSynConfig)
    service: Optional[ServiceSpec] = None  # resolved in __post_init__
    queue_size: Optional[int] = None
    max_lateness: Optional[int] = None
    shuffle: bool = False  # permute arrival order inside the lateness window
    shuffle_seed: int = 0
    checkpoint_path: Optional[str] = None
    checkpoint_every: Optional[int] = None  # mid-run cadence (0 = only at end)
    checkpoint_keep: Optional[int] = None  # rotated generations to retain
    drain_deadline: Optional[float] = None  # SIGTERM drain bound (seconds)
    ingest_consumers: Optional[int] = None  # assembler partitions (>=1)
    resume: bool = False  # load checkpoint_path and continue from it

    def __post_init__(self) -> None:
        base = self.service if self.service is not None else ServiceSpec()
        overrides = {
            name: getattr(self, name)
            for name in _MIRRORED_SERVICE_FIELDS
            if getattr(self, name) is not None
        }
        # replace() re-runs ServiceSpec.__post_init__, so validation of
        # the flat overrides happens in the spec layer, once.
        self.service = dataclasses.replace(
            base, transport="ingest", **overrides
        )
        for name in _MIRRORED_SERVICE_FIELDS:
            setattr(self, name, getattr(self.service, name))


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


def build_curator(data: StreamDataset, config: RetraSynConfig):
    """The same engine `repro run` builds, without running anything."""
    lam = (
        config.lam
        if config.lam is not None
        else max(1.0, average_length(data.trajectories))
    )
    return OnlineRetraSyn(data.grid, config, lam=lam)


def serve_dataset(data: StreamDataset, settings: ServeSettings) -> ServeOutcome:
    """Replay ``data`` through the ingestion service and package the run."""
    resumed_from_t: Optional[int] = None
    if settings.resume:
        if not settings.checkpoint_path:
            raise ValueError("resume requires a checkpoint_path")
        if not checkpoint_exists(settings.checkpoint_path):
            raise FileNotFoundError(
                f"no checkpoint to resume from: {settings.checkpoint_path}"
            )
        curator = load_checkpoint(settings.checkpoint_path)
        resumed_from_t = curator._last_t + 1
    else:
        curator = build_curator(data, settings.config)

    view = ColumnarStreamView(data, curator.space)
    shuffle_rng = (
        np.random.default_rng(settings.shuffle_seed) if settings.shuffle else None
    )
    reports = dataset_reports(
        view,
        start_t=resumed_from_t or 0,
        shuffle_rng=shuffle_rng,
        block=settings.max_lateness + 1,
    )

    start = time.perf_counter()
    try:
        stats = ingest_events(
            curator,
            reports,
            queue_size=settings.queue_size,
            max_lateness=settings.max_lateness,
            checkpoint_path=settings.checkpoint_path,
            checkpoint_every=settings.checkpoint_every,
            checkpoint_keep=settings.checkpoint_keep,
            ingest_consumers=settings.ingest_consumers,
        )
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
