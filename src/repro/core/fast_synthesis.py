"""Vectorized, incrementally compiled, shard-parallel real-time synthesis.

The reference :class:`~repro.core.synthesis.Synthesizer` keeps one Python
object per live stream; Table V shows synthesis dominating the per-timestamp
cost.  This module provides :class:`VectorizedSynthesizer` — a drop-in
replacement that advances *all* live streams with array operations:

* per-cell movement distributions are compiled into padded ``(|C|, width)``
  probability / destination matrices.  Compilation is **incremental**: the
  mobility model journals which origin rows each DMU round dirtied, and
  :class:`_CompiledModel` re-assembles exactly those rows with vectorized
  padded-row gathers — there is no per-cell Python loop even on a full
  rebuild (when the journal has no provenance).  The seed implementation's
  per-cell compile loop lives on as a test oracle under
  ``tests/reference/``;
* each timestamp draws one uniform vector for quits and one for moves, and
  resolves destinations with an inverse-CDF lookup that walks the CDF one
  contiguous column at a time (no streams × out-degree temporary);
* live streams can be partitioned into ``synthesis_shards`` slabs of
  consecutive live positions, advanced concurrently on a thread pool (the
  heavy numpy kernels release the GIL); slab results are merged back by
  array concatenation, so the store is written from one thread only;
* trajectories live in a round-major :class:`~repro.core.trajectory_store
  .TrajectoryStore`.  A step reads the store's live vectors (current cell,
  length) in place and hands back position masks —
  ``advance(t, quit_mask, new_cells)``, then ``drop(mask)`` when the
  population shrinks — so a round appends one contiguous column to the
  store's log and compacts the live vectors once.  ``CellTrajectory``
  objects are materialised only at API boundaries.

The generative *distribution* is identical to the reference implementation
(property-tested in ``tests/core/test_fast_synthesis.py``); only the order
in which random variates are consumed differs, so per-seed outputs are not
bit-identical across the two engines (nor across shard counts).  For a
fixed seed and shard count the engine is fully deterministic.  Dirty-row
and full re-assembly share one routine, so they are bit-identical by
construction.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.mobility_model import GlobalMobilityModel
from repro.core.trajectory_store import TrajectoryStore
from repro.exceptions import ConfigurationError
from repro.geo.trajectory import CellTrajectory
from repro.rng import RngLike, ensure_rng, load_rng

#: Below this many live streams a shard round trip costs more than it saves.
_MIN_STREAMS_PER_SHARD = 2048


def start_distribution(probs, n_cells: int) -> Optional[np.ndarray]:
    """``probs`` normalised to sum to one, or ``None`` when it has no mass
    (callers then seed uniformly).  A wrong size, or an entry that is NaN,
    infinite or negative, is a :class:`ConfigurationError`."""
    probs = np.asarray(probs, dtype=float)
    if probs.size != n_cells:
        raise ConfigurationError(
            f"expected {n_cells} start-cell probabilities, got {probs.size}"
        )
    bad = np.flatnonzero(~np.isfinite(probs) | (probs < 0))
    if bad.size:
        raise ConfigurationError(
            f"start-cell probability {bad[0]} is {probs[bad[0]]}; "
            "entries must be finite and >= 0"
        )
    total = probs.sum()
    return probs / total if total > 0 else None


def _inverse_cdf(cum_t: np.ndarray, cells: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Index of the first CDF entry of row ``cells[i]`` not below ``draws[i]``.

    ``cum_t`` is the column-major CDF (``(width, n_cells)``), so the count
    of entries each draw exceeds accumulates one contiguous column at a
    time and no ``(n, width)`` array is ever gathered, compared or
    reduced.  The last column is 1.0 in every row and draws lie in
    ``[0, 1)``, so it never counts and is skipped.
    """
    index = np.zeros(cells.size, dtype=np.int64)
    for column in cum_t[:-1]:
        index += draws > column.take(cells)
    return index


def _draw_slab(
    lam: float,
    lengths: Optional[np.ndarray],
    cells: np.ndarray,
    cum_t: np.ndarray,
    dest: np.ndarray,
    quit_raw: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Quit mask and the stayers' next cells for streams now at ``cells``.

    The one draw sequence the single-threaded path and the thread slabs
    share — one uniform vector for quits (``lengths`` is ``None`` when
    termination is disabled), one for moves, the move draw skipped when
    nothing stays.
    """
    if lengths is None:
        stay_cells = cells
        quit_mask = np.zeros(cells.size, dtype=bool)
    else:
        quit_mask = rng.random(cells.size) < lengths / lam * quit_raw.take(cells)
        stay_cells = cells[~quit_mask]
    if stay_cells.size == 0:
        return quit_mask, np.empty(0, dtype=np.int64)
    dest_idx = _inverse_cdf(cum_t, stay_cells, rng.random(stay_cells.size))
    return quit_mask, dest.reshape(-1).take(stay_cells * dest.shape[1] + dest_idx)


class _CompiledModel:
    """Padded array view of a mobility model, kept current per row.

    ``dest`` is the space's static padded destination matrix (shared,
    read-only); ``cum_t`` holds the per-origin inverse-CDF over
    destinations (conditional on not quitting), column-major — one
    contiguous ``n_cells`` column per destination rank, the layout
    :func:`_inverse_cdf` walks — and ``quit_raw`` the raw per-origin quit
    probability of Eq. 6.
    """

    def __init__(self, model: GlobalMobilityModel) -> None:
        space = model.space
        out_pad, dest_pad, deg = space.padded_out_structure()
        self._out_pad = out_pad
        self._deg = deg
        self._mask = np.arange(out_pad.shape[1]) < deg[:, None]
        self.dest = dest_pad
        self.cum_t = np.empty(out_pad.shape[::-1], dtype=float)
        self.quit_raw = np.empty(space.n_cells, dtype=float)
        self._assemble(model, slice(None))
        self.version = model.version

    def _assemble(self, model: GlobalMobilityModel, rows) -> None:
        """Recompute ``cum_t`` / ``quit_raw`` for the selected origin rows.

        ``rows`` is a row-index array or ``slice(None)``; either way the
        assembly is pure padded gathering — no per-cell iteration.
        """
        space = model.space
        f = model.clipped_frequencies()
        mask = self._mask[rows]
        deg = self._deg[rows]
        uniform = mask / deg[:, None]
        moves = f[self._out_pad[rows]] * mask
        if space.include_eq:
            quit_mass = f[space.quit_indices][rows]
        else:
            quit_mass = np.zeros(deg.shape)
        # Two-stage normalisation in exactly the reference arithmetic
        # (row_distribution then probs/total in the seed compile loop), so
        # the CDFs match that loop bit for bit, not just ulp-close ones:
        # first Eq. 6 probabilities over the row denominator
        # (uniform for massless rows), then renormalise conditional on
        # not quitting (uniform again when all mass sits on quitting).
        denom = moves.sum(axis=1) + quit_mass
        has_mass = denom > 0.0
        probs = np.where(
            has_mass[:, None],
            moves / np.where(has_mass, denom, 1.0)[:, None],
            uniform,
        )
        total = probs.sum(axis=1)
        has_moves = total > 0.0
        norm = np.where(
            has_moves[:, None],
            probs / np.where(has_moves, total, 1.0)[:, None],
            uniform,
        )
        cum = np.cumsum(norm, axis=1)
        cum[~mask] = 1.0
        cum[np.arange(deg.size), deg - 1] = 1.0  # guard against rounding
        self.cum_t[:, rows] = cum.T
        self.quit_raw[rows] = np.where(
            has_mass, quit_mass / np.where(has_mass, denom, 1.0), 0.0
        )

    def update(self, model: GlobalMobilityModel) -> None:
        """Bring the compiled arrays up to ``model.version``.

        Re-assembles only the rows the model's dirty journal names; when
        provenance is unavailable (a full ``set_all``, or the journal was
        outrun) it re-assembles every row.
        """
        if self.version == model.version:
            return
        dirty = model.dirty_origins_since(self.version)
        if dirty is None:
            self._assemble(model, slice(None))
        elif dirty.size:
            self._assemble(model, dirty)
        self.version = model.version


class VectorizedSynthesizer:
    """Array-based synthesizer with the same contract as ``Synthesizer``.

    Parameters mirror :class:`~repro.core.synthesis.Synthesizer`, plus:

    synthesis_shards:
        Live streams are split into this many slabs, each advanced by its
        own rng and merged by concatenation.  ``1`` (default) keeps the
        single-threaded path, which consumes the main rng exactly like
        earlier releases.  Slabs run on a pool of threads (the heavy
        numpy kernels release the GIL).
    """

    def __init__(
        self,
        model: GlobalMobilityModel,
        lam: float,
        enable_termination: bool = True,
        rng: RngLike = None,
        initial_capacity: int = 1024,
        synthesis_shards: int = 1,
    ) -> None:
        if lam <= 0:
            raise ConfigurationError(f"lambda must be positive, got {lam}")
        if synthesis_shards < 1:
            raise ConfigurationError(
                f"synthesis_shards must be >= 1, got {synthesis_shards}"
            )
        self.model = model
        self.lam = float(lam)
        self.enable_termination = bool(enable_termination)
        self.rng = ensure_rng(rng)
        self.synthesis_shards = int(synthesis_shards)
        self.store = TrajectoryStore(
            initial_capacity=max(16, int(initial_capacity)),
            n_cells=model.space.n_cells,
        )
        self._compiled: Optional[_CompiledModel] = None
        self._shard_rngs: Optional[list[np.random.Generator]] = None
        if self.synthesis_shards > 1:
            seeds = self.rng.integers(0, 2**63 - 1, size=self.synthesis_shards)
            self._shard_rngs = [np.random.default_rng(int(s)) for s in seeds]
        self._pool = None  # lazy ThreadPoolExecutor

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    @property
    def n_live(self) -> int:
        return self.store.n_live

    @property
    def live_streams(self) -> list[CellTrajectory]:
        return self.store.live_views()

    def all_trajectories(self) -> list[CellTrajectory]:
        """Every synthetic stream ever created."""
        return self.store.all_views()

    def all_rows(self) -> np.ndarray:
        """Store rows of every stream, in creation order."""
        return np.arange(self.store.n_total, dtype=np.int64)

    def live_last_cells(self) -> np.ndarray:
        """Current cell of every live stream — no object materialisation."""
        return self.store.live_cells().copy()

    # ------------------------------------------------------------------ #
    # stream creation
    # ------------------------------------------------------------------ #
    def spawn_from_entering(self, t: int, count: int) -> None:
        """Fresh streams with start cells sampled from E."""
        if count <= 0:
            return
        probs = self.model.enter_distribution()
        self.store.append_streams(
            t, self.rng.choice(probs.size, size=count, p=probs)
        )

    def spawn_uniform(self, t: int, count: int) -> None:
        """Uniformly seeded streams (NoEQ / baseline initialisation)."""
        if count <= 0:
            return
        self.store.append_streams(
            t, self.rng.integers(0, self.model.space.n_cells, size=count)
        )

    def spawn_from_distribution(self, t: int, count: int, probs: np.ndarray) -> None:
        """Streams seeded from an explicit start-cell distribution."""
        if count <= 0:
            return
        probs = start_distribution(probs, self.model.space.n_cells)
        if probs is None:
            self.spawn_uniform(t, count)
            return
        self.store.append_streams(t, self.rng.choice(probs.size, size=count, p=probs))

    # ------------------------------------------------------------------ #
    # the vectorized generative step
    # ------------------------------------------------------------------ #
    def _compile(self) -> _CompiledModel:
        if self._compiled is None:
            self._compiled = _CompiledModel(self.model)
        else:
            self._compiled.update(self.model)
        return self._compiled

    def step(self, t: int, target_size: Optional[int] = None) -> None:
        """Advance all live streams to ``t``; optionally adjust the size."""
        self._generate(t)
        if target_size is not None:
            self._adjust_size(t, int(target_size))

    def _executor(self):
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self.synthesis_shards,
                thread_name_prefix="synthesis-shard",
            )
        return self._pool

    def _generate(self, t: int) -> None:
        store = self.store
        cells = store.live_cells()
        if cells.size == 0:
            return
        compiled = self._compile()
        lengths = store.live_lengths() if self.enable_termination else None
        args = (compiled.cum_t, compiled.dest, compiled.quit_raw)
        if (
            self.synthesis_shards > 1
            and cells.size >= self.synthesis_shards * _MIN_STREAMS_PER_SHARD
        ):
            # Slabs are consecutive runs of live positions, so their results
            # concatenate back into live order; the store is written here,
            # on one thread.
            shards = self.synthesis_shards
            length_slabs = (
                [None] * shards if lengths is None else np.array_split(lengths, shards)
            )
            futures = [
                self._executor().submit(_draw_slab, self.lam, slab_lengths, slab, *args, rng)
                for slab_lengths, slab, rng in zip(
                    length_slabs, np.array_split(cells, shards), self._shard_rngs
                )
            ]
            parts = [future.result() for future in futures]
            quit_mask = np.concatenate([part[0] for part in parts])
            new_cells = np.concatenate([part[1] for part in parts])
        else:
            rng = self._shard_rngs[0] if self._shard_rngs else self.rng
            quit_mask, new_cells = _draw_slab(self.lam, lengths, cells, *args, rng)
        store.advance(t, quit_mask, new_cells)

    def _adjust_size(self, t: int, target: int) -> None:
        if target < 0:
            raise ConfigurationError(f"target size must be >= 0, got {target}")
        n_live = self.store.n_live
        deficit = target - n_live
        if deficit > 0:
            self.spawn_from_entering(t, deficit)
            return
        if deficit == 0 or not self.enable_termination:
            return
        n_drop = -deficit
        quit_dist = self.model.quit_distribution()
        weights = quit_dist[self.store.live_cells()] + 1e-9
        weights = weights / weights.sum()
        drop = self.rng.choice(n_live, size=n_drop, replace=False, p=weights)
        # Dropped streams give back the cell generated for t: quitting means
        # the final report was at t-1 (matches the reference synthesizer).
        mask = np.zeros(n_live, dtype=bool)
        mask[drop] = True
        self.store.drop(mask)

    # ------------------------------------------------------------------ #
    # lifecycle and checkpoint state
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the slab thread pool (rebuilt lazily if stepped again)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    def state(self) -> dict:
        """The slab rngs (the next step recompiles the model in full)."""
        return {"shard_rngs": [rng.bit_generator.state for rng in self._shard_rngs or []]}

    def load_state(self, state: dict) -> None:
        for rng, value in zip(self._shard_rngs or [], state["shard_rngs"], strict=True):
            load_rng(rng, value)
        self._compiled = None
