"""Incremental (online) curator interface.

:class:`~repro.core.retrasyn.RetraSyn` processes a finished
:class:`~repro.stream.stream.StreamDataset` in one call — convenient for
experiments, but a *real-time* deployment receives reports timestamp by
timestamp.  :class:`OnlineRetraSyn` is that interface::

    curator = OnlineRetraSyn(grid, RetraSynConfig(epsilon=1.0, w=20), lam=14)
    for t in range(...):                      # as wall-clock time advances
        step = curator.process_timestep(
            t,
            participants=[(uid, state), ...],  # users able to report at t
            newly_entered=[uid, ...],
            quitted=[uid, ...],
            n_real_active=count,
        )
        publish(curator.live_snapshot())       # current synthetic positions

    run = curator.result(n_timestamps=T)       # full SynthesisRun at the end

The batch pipeline, every session and the served deployment drive this one
class, so all paths share one code base and one set of invariants (privacy
accounting, DMU, size adjustment).

Collection always runs through ``config.n_shards`` hash-partitioned
:class:`~repro.core.sharded.CollectionShard` objects — in process
(``shard_executor="serial"``) or on worker processes (``"distributed"``) —
whose raw one-counts are merged and debiased once per round.  K=1 serial
is the paper's unsharded round: one in-process shard drawing from the
engine's own rng.

Privacy is accounted by the ledger
:func:`~repro.ldp.accountant.make_ledger` picks from the division: budget
division admits each round, then charges its ``ε_t`` once to the O(w)
schedule ledger; population division spends per reporter in the columnar
per-user ledger.

The collection phase is *columnar*: ``participants`` may be a
:class:`~repro.stream.reports.ReportBatch` (numpy arrays of user ids,
encoded state indices, and transition-kind codes) and object-path inputs —
lists of ``(user_id, TransitionState)`` pairs — are bridged into one at the
boundary.  Both representations drive the same selection code and consume
the RNG identically, so they produce bit-identical synthetic streams for a
fixed seed (tested in ``tests/core/test_columnar_equivalence.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.api import schema
from repro.core.allocation import (
    AllocationContext,
    make_budget_allocator,
    make_population_allocator,
)
from repro.core.dmu import DMUSelector
from repro.core.mobility_model import GlobalMobilityModel
from repro.core.synthesis import Synthesizer
from repro.exceptions import ConfigurationError, DatasetError
from repro.geo.grid import Grid
from repro.ldp.accountant import make_ledger, require_distinct, uses_schedule_ledger
from repro.ldp.oue import OptimizedUnaryEncoding
from repro.rng import ensure_rng, load_rng
from repro.stream.reports import ReportBatch, as_report_batch, shard_of_array
from repro.stream.slots import UserSlotTable
from repro.stream.state_space import TransitionStateSpace
from repro.stream.user_tracker import UserTracker

#: Collections with less budget than this are skipped outright.
_MIN_EPSILON = 1e-8

def plane_state(accountant, tracker) -> dict:
    """Resident and retired row counts of the ledger and tracker planes.

    ``{"rows": {plane: n}, "retired": {plane: n}}`` — the shape
    :meth:`OnlineRetraSyn.state_summary` reports and shard workers ship
    with their ``shard-stats`` reply, summed per plane across shards.
    """
    planes = (("ledger", accountant), ("tracker", tracker))
    return {
        "rows": {p: int(getattr(o, "n_rows", 0)) for p, o in planes},
        "retired": {p: int(getattr(o, "n_retired", 0)) for p, o in planes},
    }


def _forget_retired_phases(tracker, report_phase: dict) -> None:
    """Drop the "random"-strategy phases of users the tracker has retired.

    A retired uid that returns is re-drawn a phase on arrival, so stale
    entries are never read — this only keeps the dict the size of the
    resident population.  Amortised: it runs when the dict has outgrown
    the tracker's table twofold.
    """
    if len(report_phase) <= 2 * tracker.n_rows + 1024:
        return
    uids = np.fromiter(report_phase, dtype=np.int64, count=len(report_phase))
    for uid in uids[~tracker.is_resident(uids)].tolist():
        del report_phase[uid]


def sample_population_reporters_batch(
    tracker,
    report_phase: dict,
    rng,
    cfg,
    t: int,
    batch: ReportBatch,
    newly_entered,
    rate: Optional[float],
    stochastic_round: bool = False,
) -> np.ndarray:
    """:func:`select_population_reporters`'s row indices, without the slots."""
    return select_population_reporters(
        tracker, report_phase, rng, cfg, t, batch, newly_entered, rate,
        stochastic_round,
    )[0]


def select_population_reporters(
    tracker,
    report_phase: dict,
    rng,
    cfg,
    t: int,
    batch: ReportBatch,
    newly_entered,
    rate: Optional[float],
    stochastic_round: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 1's per-timestamp reporter selection over one user set.

    Registers arrivals, recycles the ``t − w`` cohort, then either applies
    the user-driven "random" phase rule or samples a ``rate`` fraction of
    the eligible rows.  Every
    :class:`~repro.core.sharded.CollectionShard` runs it over its
    partition (the whole population on the engine's K=1 serial shard).
    Returns the selected *row indices* into ``batch`` (in selection order)
    and the tracker slots of those rows: the batch's ids are resolved once,
    here, and the round marks its reporters by slot
    (:meth:`~repro.stream.user_tracker.UserTracker.mark_reported_slots`).

    ``stochastic_round=True`` rounds the sample size probabilistically so
    that its *expectation* is exactly ``rate * len(eligible)`` — required
    when the population is split into many small partitions, where
    deterministic rounding would systematically under- or over-sample.

    Draws from ``rng`` in a fixed sequence — one ``integers`` call per
    arrival under the "random" strategy, one ``random`` call for
    stochastic rounding, one ``choice`` call over the eligible set — the
    same as the per-pair loop in ``tests/reference/sampler.py``, so both
    select the same users in the same order for a fixed seed (pinned by
    ``tests/core/test_columnar_equivalence.py``).
    """
    entered = np.asarray(newly_entered, dtype=np.int64)
    tracker.register(entered)
    if cfg.allocator == "random":
        for uid in entered.tolist():
            report_phase[uid] = int(rng.integers(0, cfg.w))
        _forget_retired_phases(tracker, report_phase)
    tracker.recycle(t)
    active, slots = tracker.active_slots(batch.user_ids)
    eligible_rows = np.flatnonzero(active)
    if cfg.allocator == "random":
        phase = t % cfg.w
        keep = [
            i
            for i, uid in zip(
                eligible_rows.tolist(), batch.user_ids[eligible_rows].tolist()
            )
            if report_phase.get(uid, 0) == phase
        ]
        rows = np.asarray(keep, dtype=np.int64)
        return rows, slots[rows]
    n_eligible = int(eligible_rows.size)
    target = (rate or 0.0) * n_eligible
    if stochastic_round:
        n_sample = int(target) + int(rng.random() < (target - int(target)))
    else:
        n_sample = int(round(target))
    if n_sample <= 0 or n_eligible == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    idx = rng.choice(n_eligible, size=min(n_sample, n_eligible), replace=False)
    rows = eligible_rows[np.atleast_1d(idx)]
    return rows, slots[rows]


def _split_ids(ids, n_shards: int) -> list[np.ndarray]:
    """Partition an id array by shard, preserving order inside each part."""
    ids = np.asarray(ids, dtype=np.int64)
    if n_shards == 1:
        return [ids]
    sid = shard_of_array(ids, n_shards)
    return [ids[sid == k] for k in range(n_shards)]


@dataclass(frozen=True)
class TimestepResult:
    """What happened inside one :meth:`OnlineRetraSyn.process_timestep`."""

    t: int
    n_reporters: int
    epsilon_used: float
    n_significant: int
    n_live_synthetic: int


class OnlineRetraSyn:
    """Stateful per-timestamp RetraSyn curator.

    Parameters
    ----------
    grid:
        Discretisation grid shared with the reporting users.
    config:
        A :class:`~repro.core.retrasyn.RetraSynConfig`.
    lam:
        Termination restriction factor λ (Eq. 8).  The batch pipeline
        defaults it to the dataset's average length; online deployments
        supply a domain estimate.

    ``config.n_shards`` and ``config.shard_executor`` choose where the
    collection shards run (see :mod:`repro.core.sharded`); the choice is
    made here, once.  ``close()`` (or a ``with`` block) releases worker
    processes and synthesis thread slabs.
    """

    def __init__(self, grid: Grid, config, lam: float) -> None:
        from repro.core.sharded import CollectionShard

        if lam <= 0:
            raise ConfigurationError(f"lambda must be positive, got {lam}")
        self.n_shards = config.n_shards
        executor = config.shard_executor
        self.grid = grid
        self.config = config
        self.lam = float(lam)
        self.rng = ensure_rng(config.seed)
        self.space = TransitionStateSpace(
            grid, include_entering_quitting=config.model_entering_quitting
        )
        self.model = GlobalMobilityModel(self.space)
        if config.engine == "vectorized":
            from repro.core.fast_synthesis import VectorizedSynthesizer

            self.synthesizer = VectorizedSynthesizer(
                self.model,
                lam=lam,
                enable_termination=config.model_entering_quitting,
                rng=self.rng,
                synthesis_shards=config.synthesis_shards,
            )
        else:
            self.synthesizer = Synthesizer(
                self.model,
                lam=lam,
                enable_termination=config.model_entering_quitting,
                rng=self.rng,
            )
        self.selector = DMUSelector()
        self.context = AllocationContext(kappa=config.kappa)
        # The per-user ledger's uid -> slot table.  At K=1 serial it backs
        # both columnar user-state planes: the shard's tracker columns and
        # the accountant's spend ring hang on it, and it retires a row once
        # both have released it.  A schedule ledger keeps no per-user rows
        # and budget division no tracker, so neither needs a table.
        schedule = uses_schedule_ledger(config)
        self._slots = None if schedule else UserSlotTable()
        self.accountant = (
            make_ledger(config, slots=self._slots) if config.track_privacy else None
        )
        #: Budget-division rounds are admitted before they change anything.
        self._admits = schedule and config.track_privacy
        self.timings = {
            "user_side": 0.0,
            "model_construction": 0.0,
            "dmu": 0.0,
            "synthesis": 0.0,
        }
        self.reporters_per_timestamp: list[int] = []
        self.significant_per_timestamp: list[int] = []
        self._model_initialized = False
        self._last_t: Optional[int] = None

        if config.division == "population":
            self._pop_alloc = (
                None
                if config.allocator == "random"
                else make_population_allocator(
                    config.allocator, config.w,
                    alpha=config.alpha, p_max=config.p_max,
                )
            )
            self._budget_alloc = None
        else:
            self._pop_alloc = None
            self._budget_alloc = make_budget_allocator(
                config.allocator, config.epsilon, config.w,
                alpha=config.alpha, p_max=config.p_max,
            )

        #: Final per-shard ledger stats and per-worker plane row counts,
        #: cached by :meth:`close` so the distributed accountant view and
        #: :meth:`state_summary` stay answerable after shutdown.
        self._final_summaries = None
        self._final_plane_states: list = []
        self._pool = self._shards = None
        if self.n_shards == 1 and executor == "serial":
            # The unsharded round: the one shard draws from the engine rng,
            # tracks users on the ledger's slot table and rounds the sample
            # size deterministically; no shard seed is drawn.
            shard = CollectionShard(grid, config, self.rng)
            shard.stochastic_round = False
            if shard.tracker is not None:
                shard.tracker = UserTracker(config.w, slots=self._slots)
            self._shards = [shard]
            return
        seeds = [
            int(s) for s in self.rng.integers(0, 2**63 - 1, size=self.n_shards)
        ]
        if executor == "serial":
            self._shards = [CollectionShard(grid, config, s) for s in seeds]
            return
        from repro.core.distributed import DistributedAccountantView, ShardSocketPool

        self._pool = ShardSocketPool(grid, config, seeds)
        # The workers own the ledgers; the engine exposes a merged
        # read-only view so stats()/result()/audits work unchanged.
        if self.accountant is not None:
            self.accountant = DistributedAccountantView(self)

    # ------------------------------------------------------------------ #
    # the per-timestamp protocol round
    # ------------------------------------------------------------------ #
    def process_timestep(
        self,
        t: int,
        participants,
        newly_entered: Sequence[int] = (),
        quitted: Sequence[int] = (),
        n_real_active: int = 0,
    ) -> TimestepResult:
        """Run one full collection → update → synthesis round.

        ``participants`` describes every user *able* to report at ``t`` —
        either a columnar :class:`~repro.stream.reports.ReportBatch` (the
        native representation) or object-path ``(user_id, state)`` pairs,
        which are bridged into a batch here.  The allocation strategy
        decides who actually reports; ``n_real_active`` drives size
        adjustment.
        """
        cfg = self.config
        if self._last_t is not None and t != self._last_t + 1:
            raise ConfigurationError(
                f"timestamps must be consecutive: got {t} after {self._last_t}"
            )
        batch = as_report_batch(self.space, participants)
        if not cfg.model_entering_quitting:
            batch = batch.moves_only()
        entered = np.asarray(newly_entered, dtype=np.int64)
        quit_ids = np.asarray(quitted, dtype=np.int64)

        collected, n_reporters, eps_used = self._collect_round(
            t, batch, entered, quit_ids
        )
        self.reporters_per_timestamp.append(n_reporters)

        n_significant = self._update_model(collected, eps_used, n_reporters)
        self.significant_per_timestamp.append(n_significant)

        self._synthesize(t, n_real_active)
        return TimestepResult(
            t=t,
            n_reporters=n_reporters,
            epsilon_used=eps_used if n_reporters else 0.0,
            n_significant=n_significant,
            n_live_synthetic=self.synthesizer.n_live,
        )

    # ------------------------------------------------------------------ #
    # the collection round
    # ------------------------------------------------------------------ #
    def _partition(self, batch: ReportBatch, newly_entered, quitted):
        """Hash-partition one timestamp's traffic: pure array slicing."""
        K = self.n_shards
        return batch.partition(K), _split_ids(newly_entered, K), _split_ids(quitted, K)

    def _propose(self, t):
        """The round's globally proposed ``(rate, ε_t)``; changes nothing."""
        cfg = self.config
        rate: Optional[float] = None
        if cfg.division == "population":
            eps_t = cfg.epsilon
            if cfg.allocator != "random":
                rate = self._pop_alloc.propose(t, self.context)
        else:
            eps_t = self._budget_alloc.propose(t, self.context)
            if eps_t < _MIN_EPSILON:
                eps_t = 0.0
        return rate, eps_t

    def _admit(self, t, batch: ReportBatch, eps_t: float) -> None:
        """Refuse a budget-division round before it changes anything.

        Under the schedule ledger every reporter is charged ``ε_t`` once,
        which bounds a user's spend only if the round's reporters are
        distinct.  So a round is checked — distinct uids, and the window
        total with the proposed ``ε_t`` — before the clock, the
        allocator's schedule, any shard draw or the store move: a refused
        ``t`` may be resubmitted and continues as if it had never been
        seen.  The in-process ledger checks both itself; distributed
        workers' ledgers sit behind the round, so the coordinator checks
        distinctness and the allocator's checked ``commit`` the window.
        Population division is not admitted: its per-user ledgers refuse
        at spend time, after the round has drawn.
        """
        if not self._admits or eps_t == 0.0:
            return
        admit = getattr(self.accountant, "admit", None)
        if admit is not None:
            admit(batch.user_ids, t, eps_t)
        else:
            require_distinct(batch.user_ids, t)

    def _merge_outs(self, t, outs, eps_t):
        """Merge per-shard round outputs into one debiased collection.

        One vector add per shard, one debias for the union.  Only the
        perturbation seconds count as user-side cost (Table V's split).
        Returns ``(collected, n_reporters, eps_used)``.
        """
        cfg = self.config
        ones = np.zeros(self.space.size)
        uid_parts: list[np.ndarray] = []
        for shard_ones, uids, user_seconds in outs:
            ones += shard_ones
            uid_parts.append(uids)
            self.timings["user_side"] += user_seconds
        reporter_uids = np.concatenate(uid_parts) if uid_parts else np.empty(0, np.int64)
        n_reporters = int(reporter_uids.size)
        eps_used = eps_t

        collected = None
        if n_reporters:
            tic = time.perf_counter()
            oracle = OptimizedUnaryEncoding(
                self.space.size, eps_used, rng=self.rng, mode=cfg.oracle_mode
            )
            collected = oracle.debias(ones, n_reporters) / n_reporters
            self.timings["model_construction"] += time.perf_counter() - tic
            # Distributed shards spent their partitions locally already.
            if self.accountant is not None and self._pool is None:
                self.accountant.spend_many(reporter_uids, t, eps_used)
            self.context.record_collection(collected)
        return collected, n_reporters, eps_used

    def _collect_round(self, t, batch: ReportBatch, newly_entered, quitted):
        """Selection + private collection for one timestamp (columnar).

        Returns ``(collected, n_reporters, eps_used)``; the model-update
        and synthesis phases downstream are executor-independent.
        """
        parts, entered, quits = self._partition(batch, newly_entered, quitted)

        # Distributed: stage the partitions on the coordinator (no I/O).
        if self._pool is not None:
            self._pool.submit(t, parts, entered, quits)

        # Globally proposed rate / budget, from the merged feedback context.
        rate, eps_t = self._propose(t)
        self._admit(t, batch, eps_t)
        # Admitted: from here on the round changes state.
        if self._budget_alloc is not None:
            self._budget_alloc.commit(eps_t)
        self._last_t = t

        if self._pool is not None:
            # Send each shard the round's one shard-round frame; workers
            # spend their reporters' budget locally before replying.
            outs = self._pool.advance(t, rate, eps_t)
        else:
            outs = [
                shard.round_batch(t, parts[k], entered[k], quits[k], rate, eps_t)
                for k, shard in enumerate(self._shards)
            ]
        return self._merge_outs(t, outs, eps_t)

    def _update_model(self, collected, eps_used, n_reporters) -> int:
        tic = time.perf_counter()
        n_significant = 0
        if collected is not None:
            if not self._model_initialized or self.config.update_strategy == "all":
                self.model.set_all(collected)
                n_significant = self.space.size
                self._model_initialized = True
            else:
                decision = self.selector.select(
                    self.model.frequencies, collected, eps_used, n_reporters
                )
                self.model.update_selected(decision.selected, collected)
                n_significant = decision.n_selected
            self.context.record_significant_ratio(n_significant / self.space.size)
        self.timings["dmu"] += time.perf_counter() - tic
        return n_significant

    def _synthesize(self, t, n_real_active) -> None:
        cfg = self.config
        tic = time.perf_counter()
        if t == 0:
            if cfg.model_entering_quitting:
                self.synthesizer.spawn_from_entering(0, n_real_active)
            else:
                self.synthesizer.spawn_uniform(0, n_real_active)
        else:
            target = n_real_active if cfg.model_entering_quitting else None
            self.synthesizer.step(t, target)
        self.timings["synthesis"] += time.perf_counter() - tic

    # ------------------------------------------------------------------ #
    # checkpoint state (see repro.core.persistence)
    # ------------------------------------------------------------------ #
    def components(self) -> list:
        """``(kind, component)`` pairs this process checkpoints, in order:
        engine, planes and serial shards, a shared slot table once."""
        pairs = [
            ("engine", self), ("context", self.context), ("model", self.model),
            ("synthesizer", self.synthesizer), ("store", self.synthesizer.store),
        ]
        if self._budget_alloc is not None:
            pairs.append(("budget", self._budget_alloc.tracker))
        if self._pool is None:
            if self.accountant is not None:
                pairs += self.accountant.components()
            for shard in self._shards:
                listed = {id(component) for _, component in pairs}
                pairs += [p for p in shard.components() if id(p[1]) not in listed]
        return pairs

    def state(self) -> dict:
        """The engine's own scalars: rng, clock, timings, per-round counts."""
        return {
            "rng": self.rng.bit_generator.state, "last_t": self._last_t,
            "model_initialized": self._model_initialized, "timings": self.timings,
            "reporters": np.asarray(self.reporters_per_timestamp, dtype=np.int64),
            "significant": np.asarray(self.significant_per_timestamp, dtype=np.int64),
        }

    def load_state(self, state: dict) -> None:
        load_rng(self.rng, state["rng"])
        last_t, timings = state["last_t"], state["timings"]
        self.timings.update((name, float(timings[name])) for name in self.timings)
        self._last_t = None if last_t is None else int(last_t)
        self._model_initialized = state["model_initialized"] is True
        self.reporters_per_timestamp = state["reporters"].tolist()
        self.significant_per_timestamp = state["significant"].tolist()

    def state_frames(self) -> list:
        """Every component's ``state`` frame, as byte segments; each
        distributed worker's shard frames are appended as it sent them."""
        parts = []
        for kind, component in self.components():
            msg = schema.message("state", component=kind, **component.state())
            parts += schema.dump_frame_parts(msg)
        if self._pool is not None:
            parts += [frame for frames in self._pool.get_states() for frame in frames]
        return parts

    def load_state_frames(self, frames: list) -> None:
        """Inverse of :meth:`state_frames` on a fresh curator, from ``(message,
        raw bytes)`` pairs; each worker gets its frames, as read."""
        components = self.components()
        # Serial: every frame is this process's; distributed: workers' follow.
        n = len(components) if self._pool is not None else len(frames)
        schema.load_states(components, [msg for msg, _ in frames[:n]])
        if self._pool is None:
            return
        starts = [i for i, (msg, _) in enumerate(frames) if msg["component"] == "shard"]
        if starts[:1] != [n]:
            raise DatasetError("worker state frames must open with a shard frame")
        bounds = zip(starts, starts[1:] + [len(frames)])
        self._pool.set_states([[raw for _, raw in frames[a:b]] for a, b in bounds])

    # ------------------------------------------------------------------ #
    # state lifetime (see docs/ARCHITECTURE.md, "State lifetime")
    # ------------------------------------------------------------------ #
    def _collection_state(self) -> dict:
        """Ledger and tracker rows summed over wherever the shards live."""
        if self._pool is None:
            parts = [plane_state(None, shard.tracker) for shard in self._shards]
            parts.append(plane_state(self.accountant, None))
        elif self._pool.alive:
            parts = self._pool.plane_states()
        else:  # workers gone: what close() read from them last
            parts = list(self._final_plane_states)
        return {
            key: {
                plane: sum(part[key][plane] for part in parts)
                for plane in ("ledger", "tracker")
            }
            for key in ("rows", "retired")
        }

    def state_summary(self) -> dict:
        """Rows resident in, and retired from, each state plane.

        ``rows`` has one entry per plane — ``ledger``, ``tracker``,
        ``store_live``, ``store_archived`` — and ``retired`` counts the
        rows each plane has let go since the session began (a finished
        stream leaves ``store_live`` for the archive).
        """
        state = self._collection_state()
        store = self.synthesizer.store
        state["rows"]["store_live"] = int(store.n_live)
        state["rows"]["store_archived"] = int(store.n_archived)
        state["retired"]["store_live"] = int(store.n_archived)
        return state

    # ------------------------------------------------------------------ #
    # outputs
    # ------------------------------------------------------------------ #
    def live_snapshot(self) -> np.ndarray:
        """Current cells of all live synthetic streams.

        Served straight from the trajectory store's cell buffer — no
        ``CellTrajectory`` objects are materialised.
        """
        return self.synthesizer.live_last_cells()

    def synthetic_dataset(self, n_timestamps: int, name: str = "online"):
        """Everything synthesized so far, as a store-backed StreamDataset.

        No ``CellTrajectory`` objects are materialised here: the dataset's
        trajectory sequence is a lazy view over the columnar store (built
        per stream only if a consumer indexes it), and the per-timestamp
        count matrix — what the streaming metrics actually consume — is
        primed from the store arrays directly.
        """
        from repro.stream.stream import StreamDataset

        dataset = StreamDataset.from_store(
            self.grid,
            self.synthesizer.store,
            rows=self.synthesizer.all_rows(),
            n_timestamps=n_timestamps,
            name=name,
        )
        dataset.prime_cell_counts(
            self.synthesizer.store.counts_matrix(
                dataset.n_timestamps, self.grid.n_cells
            )
        )
        return dataset

    def result(self, n_timestamps: int, name: str = "online", total_runtime: float = 0.0):
        """Package the curator's state as a finished SynthesisRun."""
        from repro.core.retrasyn import SynthesisRun

        return SynthesisRun(
            synthetic=self.synthetic_dataset(n_timestamps, name=name),
            config=self.config,
            accountant=self.accountant,
            timings=self.timings,
            reporters_per_timestamp=self.reporters_per_timestamp,
            significant_per_timestamp=self.significant_per_timestamp,
            total_runtime=total_runtime or sum(self.timings.values()),
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut down worker processes and the synthesizer's thread slabs."""
        if self._pool is not None:
            # Freeze what the workers hold so state_summary() — and the
            # distributed accountant view's audits — answer after shutdown.
            if self._pool.alive:
                try:
                    self._final_plane_states = self._pool.plane_states()
                    if self.config.track_privacy:
                        self._final_summaries = self._pool.stats()
                except Exception:  # pragma: no cover - dead workers
                    pass
            self._pool.close()
        closer = getattr(self.synthesizer, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "OnlineRetraSyn":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass
