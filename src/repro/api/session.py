"""Curator sessions: the one protocol every caller of the curator speaks.

Experiments, the ``repro serve`` replay, the HTTP ingress and the round
benchmark all drive :class:`~repro.core.online.OnlineRetraSyn` through a
:class:`CuratorSession`:

``submit_batch(t, reports)``
    Hand the session one timestamp's candidate reports (columnar
    :class:`~repro.stream.reports.ReportBatch` or object pairs);
    ``submit_batches(items)`` stages several, all or none.
``advance()``
    Run every collection → update → synthesis round that is ready, in
    timestamp order, returning the per-round
    :class:`~repro.core.online.TimestepResult`\\ s.
``snapshot()``
    Current cells of all live synthetic streams (numpy array).
``stats()``
    JSON-safe counters for monitoring.
``result()``
    Package everything synthesized so far as a
    :class:`~repro.core.retrasyn.SynthesisRun`.
``checkpoint(path)`` / ``close()``
    Persistence and lifecycle.

:func:`create_session` is the factory: it reads a
:class:`~repro.api.specs.SessionSpec`, builds the one curator engine
(which picks its collection shards and executor from ``n_shards`` and
``shard_executor`` itself; K=1 serial is one in-process shard on the
engine's rng) and wraps it in the synchronous façade or the watermarked
ingestion front-end (``transport="ingest"``).
The HTTP ingress (:mod:`repro.api.http`) serves exactly this protocol
over the wire, so remote and in-process callers are interchangeable.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional, Protocol, runtime_checkable

import numpy as np

from repro.api.specs import SERVICE_FIELDS, SessionSpec
from repro.core.online import OnlineRetraSyn, TimestepResult
from repro.exceptions import ConfigurationError
from repro.obs import MetricsRegistry
from repro.stream.reports import as_report_batch


@runtime_checkable
class CuratorSession(Protocol):
    """The protocol both session flavours implement (structural typing)."""

    spec: SessionSpec

    def submit_batch(
        self, t: int, participants, newly_entered=(), quitted=(),
        n_real_active: int = 0,
    ) -> None: ...

    def submit_batches(self, items) -> None: ...

    def advance(self) -> list[TimestepResult]: ...

    def snapshot(self) -> np.ndarray: ...

    def stats(self) -> dict: ...

    def result(self, n_timestamps: Optional[int] = None, name: Optional[str] = None): ...

    def checkpoint(self, path=None) -> None: ...

    def close(self) -> None: ...


class _SessionBase:
    """State and behaviour shared by the in-process session flavours."""

    def __init__(self, curator, spec: SessionSpec) -> None:
        self.curator = curator
        self.spec = spec
        self._closed = False
        self._since_checkpoint = 0
        # The registry lives here, never on the curator: metrics are
        # process-local and no part of a checkpoint. Most series are
        # callbacks over state the engines already keep, so the hot path
        # pays only one histogram observation per round.
        self.metrics = MetricsRegistry()
        self._register_curator_metrics()

    def _register_curator_metrics(self) -> None:
        m, c = self.metrics, self.curator
        self._round_hist = m.histogram(
            "retrasyn_round_seconds",
            "End-to-end latency of one collection-update-synthesis round.",
        )
        m.counter(
            "retrasyn_rounds_total", "Closed timestamps processed."
        ).set_function(lambda: len(c.reporters_per_timestamp))
        m.gauge(
            "retrasyn_live_streams", "Live synthetic trajectory streams."
        ).set_function(lambda: int(c.synthesizer.n_live))
        m.gauge(
            "retrasyn_store_rows",
            "Total rows (live + archived) in the columnar trajectory store.",
        ).set_function(lambda: int(c.synthesizer.store.n_total))
        # State lifetime: what each plane holds now and has let go so far
        # (worker-side planes ride the shard-stats reply).
        state_rows = m.gauge(
            "retrasyn_state_rows",
            "Rows resident in each state plane.",
            labelnames=("plane",),
        )
        for plane in ("ledger", "tracker", "store_live", "store_archived"):
            state_rows.labels(plane).set_function(
                lambda p=plane: c.state_summary()["rows"][p]
            )
        retired = m.counter(
            "retrasyn_retired_total",
            "Rows each state plane has retired since the session began.",
            labelnames=("plane",),
        )
        for plane in ("ledger", "tracker", "store_live"):
            retired.labels(plane).set_function(
                lambda p=plane: c.state_summary()["retired"][p]
            )
        phases = m.counter(
            "retrasyn_phase_seconds_total",
            "Cumulative seconds spent per pipeline phase.",
            labelnames=("phase",),
        )
        for phase in c.timings:
            phases.labels(phase).set_function(
                lambda p=phase: float(c.timings[p])
            )
        m.counter(
            "retrasyn_privacy_spend_events_total",
            "Per-user budget spends recorded by the privacy ledger(s).",
        ).set_function(
            lambda: int(c.accountant.n_spend_events)
            if c.accountant is not None else 0
        )
        m.counter(
            "retrasyn_privacy_refusals_total",
            "Spends refused (strict) or flagged for breaching the w-event "
            "window bound.",
        ).set_function(
            lambda: int(c.accountant.n_refusals)
            if c.accountant is not None else 0
        )
        m.gauge(
            "retrasyn_privacy_max_window_spend",
            "Largest any-user any-window budget spend observed so far.",
        ).set_function(
            lambda: float(c.accountant.max_window_spend())
            if c.accountant is not None else 0.0
        )
        pool = c._pool
        if pool is not None:
            shard_gauge = m.gauge(
                "retrasyn_shard_round_seconds",
                "Wall-clock seconds of each distributed shard's last "
                "collection round.",
                labelnames=("shard",),
            )
            for k in range(len(pool)):
                shard_gauge.labels(str(k)).set_function(
                    lambda k=k: float(pool.shard_round_seconds.get(k, 0.0))
                )
            frames = m.counter(
                "retrasyn_shard_frames_total",
                "RSF2 frames exchanged with the shard workers.",
                labelnames=("direction",),
            )
            frames.labels("sent").set_function(lambda: int(pool.frames_sent))
            frames.labels("received").set_function(
                lambda: int(pool.frames_received)
            )
            sbytes = m.counter(
                "retrasyn_shard_bytes_total",
                "On-wire bytes exchanged with the shard workers.",
                labelnames=("direction",),
            )
            sbytes.labels("sent").set_function(lambda: int(pool.bytes_sent))
            sbytes.labels("received").set_function(
                lambda: int(pool.bytes_received)
            )
            # The pool observes each round's exchange wall seconds into
            # this histogram: one observation per round.
            rt_hist = m.histogram(
                "retrasyn_shard_roundtrip_seconds",
                "Wall-clock seconds of one round's exchange with the shard "
                "workers (one shard-round out, one shard-merge back each).",
            )
            pool.latency_observer = rt_hist.observe

    # -- shared protocol surface --------------------------------------- #
    def submit_batch(
        self, t: int, participants, newly_entered=(), quitted=(),
        n_real_active: int = 0,
    ) -> None:
        """Stage one timestamp's candidate reports (processed by advance)."""
        self.submit_batches(
            [(t, participants, newly_entered, quitted, n_real_active)]
        )

    def submit_batches(self, items) -> None:
        """Stage several timestamps' reports, all or none.

        ``items`` holds ``(t, participants, newly_entered, quitted,
        n_real_active)`` tuples in submission order.  Every batch is
        admitted — converted to columnar form and checked against the
        curator's state space — before any is staged, so one bad batch
        refuses them all.  Rows outside the state space would otherwise
        fail half-way through their round, after the timestamp and the
        budget schedule had advanced.
        """
        space = self.curator.space
        admitted = []
        for t, participants, entered, quitted, n_active in items:
            batch = as_report_batch(space, participants)
            batch.check_domain(space)
            admitted.append((int(t), batch, entered, quitted, int(n_active)))
        for item in admitted:
            self._stage(*item)

    def _stage(self, t, batch, newly_entered, quitted, n_real_active) -> None:
        raise NotImplementedError

    def snapshot(self) -> np.ndarray:
        """Current cells of all live synthetic streams."""
        return self.curator.live_snapshot()

    def stats(self) -> dict:
        """JSON-safe monitoring counters."""
        c = self.curator
        out = {
            "n_timestamps": len(c.reporters_per_timestamp),
            "last_t": -1 if c._last_t is None else int(c._last_t),
            "n_reporters": int(sum(c.reporters_per_timestamp)),
            "n_live_synthetic": int(c.synthesizer.n_live),
        }
        if c.accountant is not None:
            out["privacy"] = {
                k: (bool(v) if isinstance(v, (bool, np.bool_)) else v)
                for k, v in c.accountant.summary().items()
            }
        out["state"] = c.state_summary()
        return out

    def result(
        self, n_timestamps: Optional[int] = None, name: Optional[str] = None
    ):
        """Everything synthesized so far as a finished SynthesisRun."""
        if n_timestamps is None:
            last_t = self.curator._last_t
            n_timestamps = 0 if last_t is None else last_t + 1
        if name is None:
            name = f"{self.curator.config.label}(session)"
        return self.curator.result(n_timestamps, name=name)

    def checkpoint(self, path=None) -> None:
        """Freeze the curator to ``path`` (default: the spec's path)."""
        from repro.core.persistence import save_checkpoint

        path = path if path is not None else self.spec.checkpoint_path
        if path is None:
            raise ConfigurationError(
                "checkpoint() needs a path: pass one or set "
                "the spec's checkpoint_path"
            )
        save_checkpoint(
            self.curator,
            path,
            spec=self.spec,
            keep=self.spec.checkpoint_keep,
        )

    def close(self, *, flush_partial: bool = True) -> None:
        """End of stream: final checkpoint, then release engine resources.

        ``flush_partial=False`` is the graceful-drain flavour: only
        watermark-complete timestamps are processed, so the final
        checkpoint lands on a timestamp boundary and a resumed replay of
        the unprocessed tail is bit-identical to an uninterrupted run.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._drain_on_close(flush_partial)
            if self.spec.checkpoint_path is not None:
                self.checkpoint()
        finally:
            # A failing final round or checkpoint must still release the
            # engine: distributed shard workers outlive a skipped close().
            self.curator.close()

    def _drain_on_close(self, flush_partial: bool = True) -> None:
        pass  # overridden by IngestSession

    def _after_timestep(self) -> None:
        """Periodic checkpointing shared by both session flavours."""
        spec = self.spec
        if spec.checkpoint_path is not None and spec.checkpoint_every:
            self._since_checkpoint += 1
            if self._since_checkpoint >= spec.checkpoint_every:
                self.checkpoint()
                self._since_checkpoint = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class DirectSession(_SessionBase):
    """Synchronous façade over an in-process curator engine.

    ``submit_batch`` stages exactly one timestamp's reports; ``advance``
    drives the staged rounds through
    :meth:`~repro.core.online.OnlineRetraSyn.process_timestep` in order,
    whatever shard count and executor the engine runs.
    """

    def __init__(self, curator, spec: SessionSpec) -> None:
        super().__init__(curator, spec)
        self._staged: list[tuple] = []

    def _drain_on_close(self, flush_partial: bool = True) -> None:
        # close() means end of stream for every transport: whatever was
        # submitted but not yet advanced is processed, exactly as the
        # ingest session flushes its assembler.  There is no watermark
        # here — every staged batch is complete — so drain processes too.
        self.advance()

    def _stage(self, t, batch, newly_entered, quitted, n_real_active) -> None:
        self._staged.append((t, batch, newly_entered, quitted, n_real_active))

    def advance(self) -> list[TimestepResult]:
        """Process every staged timestamp, in submission order."""
        results = []
        staged, self._staged = self._staged, []
        for t, participants, entered, quitted, n_active in staged:
            tic = time.perf_counter()
            results.append(
                self.curator.process_timestep(
                    t,
                    participants=participants,
                    newly_entered=entered,
                    quitted=quitted,
                    n_real_active=n_active,
                )
            )
            self._round_hist.observe(time.perf_counter() - tic)
            self._after_timestep()
        return results


class IngestSession(_SessionBase):
    """Session over the watermarked ingestion front-end.

    Batches may arrive out of order (within the spec's ``max_lateness``
    bound) and a timestamp's reports may come in several batches; a
    :class:`~repro.stream.ingest.TimestampAssembler` reorders them into
    canonical closed timestamps, and ``advance`` processes everything at
    or below the watermark.  ``close`` flushes the tail of the stream.
    The HTTP ingress and the ``repro serve`` replay both drive this class.
    """

    def __init__(self, curator, spec: SessionSpec) -> None:
        from repro.stream.ingest import IngestStats, TimestampAssembler

        super().__init__(curator, spec)
        last_t = curator._last_t
        self.assembler = TimestampAssembler(
            curator.space,
            start_t=0 if last_t is None else last_t + 1,
            max_lateness=self.spec.max_lateness,
        )
        self.ingest_stats = IngestStats()
        self._register_ingest_metrics()

    def _register_ingest_metrics(self) -> None:
        m, s, asm = self.metrics, self.ingest_stats, self.assembler
        m.counter(
            "retrasyn_ingest_submitted_total",
            "Reports accepted into the watermark assembler.",
        ).set_function(lambda: s.n_submitted)
        m.counter(
            "retrasyn_ingest_processed_total",
            "Reports whose timestamp closed and reached the curator.",
        ).set_function(lambda: s.n_reports_processed)
        m.counter(
            "retrasyn_ingest_late_dropped_total",
            "Reports dropped for arriving beyond the lateness bound.",
        ).set_function(lambda: int(asm.n_late_dropped))
        m.counter(
            "retrasyn_checkpoints_written_total",
            "Checkpoints written (periodic and final).",
        ).set_function(lambda: s.checkpoints_written)
        m.gauge(
            "retrasyn_ingest_backlog",
            "Reports buffered awaiting their timestamp's close.",
        ).set_function(lambda: int(asm.backlog))
        m.gauge(
            "retrasyn_ingest_backlog_high_water",
            "Largest backlog observed since the session started.",
        ).set_function(lambda: int(asm.backlog_high_water))
        m.gauge(
            "retrasyn_ingest_watermark",
            "Largest timestamp currently safe to close.",
        ).set_function(lambda: int(asm.watermark))
        m.gauge(
            "retrasyn_ingest_watermark_lag",
            "Timestamps seen in the stream but not yet closed.",
        ).set_function(lambda: int(asm.watermark_lag))
        m.gauge(
            "retrasyn_ingest_next_t",
            "Next timestamp the assembler will close.",
        ).set_function(lambda: int(asm.next_t))

    # -- feeding -------------------------------------------------------- #
    def _stage(self, t, batch, newly_entered, quitted, n_real_active) -> None:
        # newly_entered / quitted / n_real_active are derived from the
        # report kinds when the timestamp closes: the assembler is the
        # source of truth here.
        self.assembler.add_batch(t, batch)
        self.ingest_stats.n_submitted += len(batch)

    # -- processing ----------------------------------------------------- #
    def advance(self) -> list[TimestepResult]:
        """Close and process every timestamp at or below the watermark."""
        results = [self._process(c) for c in self.assembler.pop_ready()]
        self.ingest_stats.n_late_dropped = self.assembler.n_late_dropped
        return results

    def _process(self, closed) -> TimestepResult:
        tic = time.perf_counter()
        result = self.curator.process_timestep(
            closed.t,
            participants=closed.batch,
            newly_entered=closed.newly_entered,
            quitted=closed.quitted,
            n_real_active=closed.n_active,
        )
        self._round_hist.observe(time.perf_counter() - tic)
        self.ingest_stats.n_timestamps += 1
        self.ingest_stats.n_reports_processed += len(closed.batch)
        self._after_timestep()
        return result

    def _drain_on_close(self, flush_partial: bool = True) -> None:
        ready = (
            self.assembler.flush()
            if flush_partial
            else self.assembler.pop_ready()
        )
        for closed in ready:
            self._process(closed)
        self.ingest_stats.n_late_dropped = self.assembler.n_late_dropped

    def checkpoint(self, path=None) -> None:
        """Freeze the curator to ``path`` (default: the spec's path).

        Timestamps the assembler still holds open are not in the
        checkpoint — at ``max_lateness=0``, the newest one submitted.  A
        resumed session must be fed again from its
        ``stats()["ingest"]["next_t"]``.
        """
        super().checkpoint(path)
        self.ingest_stats.checkpoints_written += 1

    def stats(self) -> dict:
        out = super().stats()
        s = self.ingest_stats
        out["ingest"] = {
            "n_submitted": s.n_submitted,
            "n_late_dropped": s.n_late_dropped,
            "n_reports_processed": s.n_reports_processed,
            "checkpoints_written": s.checkpoints_written,
            "watermark": int(self.assembler.watermark),
            "next_t": int(self.assembler.next_t),
            "backlog": int(self.assembler.backlog),
            "backlog_high_water": int(self.assembler.backlog_high_water),
        }
        return out


def create_session(spec, grid, *, lam: Optional[float] = None) -> CuratorSession:
    """Build the curator session described by ``spec``.

    Parameters
    ----------
    spec:
        A :class:`~repro.api.specs.SessionSpec` (``RetraSynConfig`` is the
        same class).
    grid:
        The discretisation grid shared with reporting users.
    lam:
        Termination restriction factor λ (Eq. 8); overrides
        ``spec.lam``.  One of the two must be set: a session has no
        dataset to derive it from.

    ``transport="ingest"`` wraps the curator in the watermarked
    ingestion assembler, ``"direct"`` in the synchronous façade.
    """
    lam = lam if lam is not None else spec.lam
    if lam is None:
        raise ConfigurationError(
            "create_session() needs the termination factor lambda: set "
            "the spec's lam or pass lam="
        )
    curator = OnlineRetraSyn(grid, spec, lam=lam)
    if spec.transport == "ingest":
        return IngestSession(curator, spec)
    return DirectSession(curator, spec)


def load_session(path, **service) -> CuratorSession:
    """Resume the session frozen at ``path`` by :meth:`checkpoint`.

    The session runs under the spec the checkpoint stores, which describes
    the engine it restores; ``service`` replaces only the named
    :data:`~repro.api.specs.SERVICE_FIELDS` (transport, lateness, cadence,
    binding, …) for a restarted deployment.  Any other name is refused
    with :class:`~repro.exceptions.ConfigurationError`.

    An ingest session resumes at the checkpoint's ``last_t + 1``, which
    its ``stats()["ingest"]["next_t"]`` reports: resubmit every timestamp
    from there on, including ones sent before the cut that the watermark
    had not yet closed.  Skipping them refuses reports of unknown users
    (population division) or closes them as empty rounds (budget
    division).
    """
    from repro.core.persistence import load_checkpoint_with_spec

    stored = sorted(set(service) - set(SERVICE_FIELDS))
    if stored:
        raise ConfigurationError(
            f"load_session() overrides only service fields; {stored} come "
            "from the checkpoint"
        )
    curator, spec = load_checkpoint_with_spec(path)
    try:
        spec = dataclasses.replace(spec, **service)
    except BaseException:
        curator.close()
        raise
    if spec.transport == "ingest":
        return IngestSession(curator, spec)
    return DirectSession(curator, spec)
