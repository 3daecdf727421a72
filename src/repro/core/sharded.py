"""Collection shards: one hash partition's share of a RetraSyn round.

:class:`~repro.core.online.OnlineRetraSyn` collects every timestamp
through ``K = config.n_shards`` :class:`CollectionShard` objects, the way
:class:`~repro.core.fast_synthesis.VectorizedSynthesizer` slabs the
synthesis half.  Users are hash-partitioned across the shards
(:func:`shard_of`), each owning its partition's
:class:`~repro.stream.user_tracker.UserTracker` and per-round frequency
oracle.  Every timestamp each shard runs selection + perturbation on its
partition only and returns raw per-position one-counts; the engine merges
them with a single vector add and debiases once **before** mobility-model
construction, so the model, DMU and synthesizer remain global.  Partitions
travel as columnar :class:`~repro.stream.reports.ReportBatch` index arrays,
never as per-user ``TransitionState`` objects.

Why K shards are statistically equivalent to one:

* the hash partition is a fixed disjoint cover of the user population, so
  each user lives in exactly one shard and can never be sampled twice in a
  window — w-event accounting is preserved per user, not per shard; the
  engine's privacy accountant receives the merged reporter-id array once
  per round, never per shard;
* every shard perturbs with the same ``(p, q)`` OUE parameters, and the sum
  of independent per-shard one-count vectors has exactly the distribution
  of the one-count vector over the union of reporters;
* the sampling rate ``p_t`` (population division) or budget ``ε_t`` (budget
  division) is proposed *globally* from the merged collection feedback.

Shards run on one of :data:`~repro.api.specs.SHARD_EXECUTORS`
(``config.shard_executor``):

* ``"serial"`` — in-process, one shard after another.  K=1 serial is the
  paper's unsharded round: its one shard draws from the engine's own rng,
  keeps its tracker on the ledger's slot table and rounds the sample size
  deterministically, and no shard seed is drawn.  K>1 shards draw from
  per-shard seeds and round stochastically;
* ``"distributed"`` — each shard is a worker process speaking RSF2 binary
  frames over a local socket (:class:`~repro.core.distributed
  .ShardSocketPool`) and owning a **shard-local privacy accountant**; the
  engine's ``accountant`` becomes a merged read-only
  :class:`~repro.core.distributed.DistributedAccountantView`.  Workers draw
  from the same per-shard seeds as serial shards, so both executors
  produce identical output streams for K>1.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.online import select_population_reporters
from repro.geo.grid import Grid
from repro.ldp.oue import OptimizedUnaryEncoding
from repro.rng import load_rng
from repro.stream.reports import ReportBatch
from repro.stream.state_space import TransitionStateSpace
from repro.stream.user_tracker import UserTracker

#: Knuth multiplicative hash, so shard assignment is uncorrelated with any
#: arithmetic structure in the user-id space (parity, contiguous ranges, …).
_HASH_MULT = 2654435761


def shard_of(user_id: int, n_shards: int) -> int:
    """Stable hash partition of a user id into ``[0, n_shards)``.

    The xor-fold mixes the multiplied high bits back into the low bits —
    a bare ``% n_shards`` of the product would preserve arithmetic
    structure (e.g. parity) of the id space.  The vectorized twin is
    :func:`repro.stream.reports.shard_of_array`.
    """
    h = (int(user_id) * _HASH_MULT) & 0xFFFFFFFF
    h ^= h >> 16
    return h % n_shards


class CollectionShard:
    """One partition's tracker + oracle; no model, no synthesis.

    The shard consumes columnar :class:`ReportBatch` partitions whose
    states were encoded upstream (at ingestion or by the batch pipeline's
    stream view), so no per-user encoding happens here.  ``seed`` may also
    be a generator, which the shard then draws from as is.
    """

    #: Round each sample size stochastically (see :meth:`round_batch`); the
    #: engine switches it off on its K=1 serial shard.
    stochastic_round = True

    def __init__(self, grid: Grid, config, seed) -> None:
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.space = TransitionStateSpace(
            grid, include_entering_quitting=config.model_entering_quitting
        )
        self.tracker = (
            UserTracker(config.w) if config.division == "population" else None
        )
        self._report_phase: dict[int, int] = {}

    def components(self) -> list:
        tracker = self.tracker.components() if self.tracker is not None else []
        return [("shard", self), *tracker]

    def state(self) -> dict:
        """rng and the "random"-strategy phases, in insertion order."""
        phases = self._report_phase
        return {
            "rng": self.rng.bit_generator.state,
            "phase_uids": np.fromiter(phases, dtype=np.int64, count=len(phases)),
            "phases": np.fromiter(phases.values(), dtype=np.int64, count=len(phases)),
        }

    def load_state(self, state: dict) -> None:
        load_rng(self.rng, state["rng"])
        uids, phases = state["phase_uids"].tolist(), state["phases"].tolist()
        self._report_phase = dict(zip(uids, phases, strict=True))

    def round_batch(
        self,
        t: int,
        batch: ReportBatch,
        newly_entered: np.ndarray,
        quitted: np.ndarray,
        rate: Optional[float],
        eps_used: float,
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """One timestamp on this shard's partition (columnar).

        ``rate`` is the globally proposed sampling fraction ``p_t``
        (population division, ``None`` for the user-driven "random"
        strategy); ``eps_used`` the per-report budget.  Returns the raw
        per-position one-counts, the reporter id array, the seconds spent
        in the perturbation itself (the user-side cost, excluding
        selection bookkeeping, so Table V timings stay comparable across
        shard counts).

        Selection uses :func:`~repro.core.online
        .select_population_reporters`, by default with stochastic
        rounding: each partition samples ``rate``·eligible in
        *expectation*, so the total reporter volume is unbiased for any
        shard count (deterministic per-shard rounding would collapse to
        zero when partitions are small).
        """
        cfg = self.config
        if cfg.division == "population":
            rows, slots = select_population_reporters(
                self.tracker, self._report_phase, self.rng, cfg,
                t, batch, newly_entered, rate,
                stochastic_round=self.stochastic_round,
            )
            chosen = batch.take(rows)
        else:
            chosen = batch if eps_used > 0.0 else ReportBatch.empty()

        user_seconds = 0.0
        if len(chosen):
            oracle = OptimizedUnaryEncoding(
                self.space.size, eps_used, rng=self.rng, mode=cfg.oracle_mode
            )
            tic = time.perf_counter()
            ones = oracle.simulate_ones(chosen.state_idx)
            user_seconds = time.perf_counter() - tic
        else:
            ones = np.zeros(self.space.size)
        if self.tracker is not None:
            # The slots selection resolved (population division keeps
            # the only trackers); no intern has run since.
            self.tracker.mark_reported_slots(slots, t)
            self.tracker.mark_quitted(quitted)
        return ones, chosen.user_ids, user_seconds
