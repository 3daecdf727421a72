"""Real-time trajectory synthesis (paper Section III-D).

The synthesizer keeps a set of *live* synthetic streams and, at every
timestamp, performs:

1. **New point generation** — each live stream either terminates with the
   length-reweighted quit probability (Eq. 8)::

       Pr(quit | c_i) = (ℓ / λ) · f_iQ / (Σ_{x ∈ N_ci} f_ix + f_iQ)

   (``ℓ`` = current stream length, ``λ`` = termination restriction factor,
   set to the dataset's average trajectory length in the experiments) or
   extends by one cell sampled from the movement distribution.

2. **Size adjustment** — the number of live synthetic streams is matched to
   the real active-user count: shortfalls are filled with fresh streams
   whose start cell is sampled from the entering distribution ``E``;
   excesses are terminated with probability proportional to the quitting
   distribution ``Q`` evaluated at each stream's last cell.

Every stream ever created is retained, so the synthesizer's output doubles
as a complete historical database for trajectory-level metrics.

This is the *reference* engine: its per-cell grouping logic is the
readable statement of the algorithm, and its RNG consumption order defines
the semantics the vectorized engine is property-tested against.  Storage,
however, is columnar: streams live in a shared
:class:`~repro.core.trajectory_store.TrajectoryStore` (the engine keeps
only ordered row-id lists and hands the store each round as position
masks, like the vectorized engine), and ``CellTrajectory`` objects are
lazy views materialised at API boundaries — so metrics and snapshots can
use the store's array accessors even against the reference engine.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.fast_synthesis import start_distribution
from repro.core.mobility_model import GlobalMobilityModel
from repro.core.trajectory_store import TrajectoryStore
from repro.exceptions import ConfigurationError
from repro.geo.trajectory import CellTrajectory
from repro.rng import RngLike, ensure_rng


class Synthesizer:
    """Maintains the evolving synthetic database ``T_syn``.

    Parameters
    ----------
    model:
        The global mobility model distributions are read from.
    lam:
        Termination restriction factor λ of Eq. 8.  Larger values delay
        termination; the paper sets λ to the dataset's average length.
    enable_termination:
        ``False`` disables quit sampling and size-down adjustment — used by
        the NoEQ ablation and the LDP-IDS baselines.
    rng:
        Randomness for all sampling.
    """

    def __init__(
        self,
        model: GlobalMobilityModel,
        lam: float,
        enable_termination: bool = True,
        rng: RngLike = None,
    ) -> None:
        if lam <= 0:
            raise ConfigurationError(f"lambda must be positive, got {lam}")
        self.model = model
        self.lam = float(lam)
        self.enable_termination = bool(enable_termination)
        self.rng = ensure_rng(rng)
        self.store = TrajectoryStore(n_cells=model.space.n_cells)
        # Ordered row ids; the order defines RNG consumption (grouping) and
        # matches the historical _live / _finished object-list semantics.
        self._live: list[int] = []
        self._finished: list[int] = []

    def state(self) -> dict:
        """Row-id lists; the store and rng are components of their own."""
        return {
            "live": np.asarray(self._live, dtype=np.int64),
            "finished": np.asarray(self._finished, dtype=np.int64),
        }

    def load_state(self, state: dict) -> None:
        self._live, self._finished = state["live"].tolist(), state["finished"].tolist()

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    @property
    def live_streams(self) -> list[CellTrajectory]:
        return self.store.views(self._live)

    @property
    def n_live(self) -> int:
        return len(self._live)

    def all_trajectories(self) -> list[CellTrajectory]:
        """Every synthetic stream ever created (finished + still live)."""
        return self.store.views(self._finished + self._live)

    def all_rows(self) -> np.ndarray:
        """Store rows of every stream, in the historical output order."""
        return np.asarray(self._finished + self._live, dtype=np.int64)

    def live_last_cells(self) -> np.ndarray:
        """Current cell of every live stream — no object materialisation."""
        return self.store.live_cells()[self._live_positions(self._live)]

    def _live_positions(self, rows) -> np.ndarray:
        """Positions of live ``rows`` in the store's live vectors (one
        scatter and one gather; a binary search per row costs ~20x more)."""
        where = np.empty(self.store.n_total, dtype=np.int64)
        where[self.store.live_rows()] = np.arange(self.store.n_live)
        return where[np.asarray(rows, dtype=np.int64)]

    # ------------------------------------------------------------------ #
    # stream creation / termination
    # ------------------------------------------------------------------ #
    def _new_streams(self, t: int, start_cells) -> None:
        self._live.extend(self.store.append_streams(t, start_cells).tolist())

    def spawn_from_entering(self, t: int, count: int) -> None:
        """Append ``count`` fresh streams with start cells sampled from E."""
        if count <= 0:
            return
        probs = self.model.enter_distribution()
        self._new_streams(t, self.rng.choice(probs.size, size=count, p=probs))

    def spawn_uniform(self, t: int, count: int) -> None:
        """Seed streams uniformly at random (NoEQ / baseline initialisation)."""
        if count <= 0:
            return
        self._new_streams(
            t, self.rng.integers(0, self.model.space.n_cells, size=count)
        )

    def spawn_from_distribution(self, t: int, count: int, probs: np.ndarray) -> None:
        """Seed streams from an explicit start-cell distribution.

        Used by the LDP-IDS baselines, which have no entering distribution
        and instead seed from the origin marginal of their released model.
        """
        if count <= 0:
            return
        probs = start_distribution(probs, self.model.space.n_cells)
        if probs is None:
            self.spawn_uniform(t, count)
            return
        self._new_streams(t, self.rng.choice(probs.size, size=count, p=probs))

    # ------------------------------------------------------------------ #
    # the per-timestamp generative step
    # ------------------------------------------------------------------ #
    def step(self, t: int, target_size: Optional[int] = None) -> None:
        """Advance every live stream to timestamp ``t`` and adjust the size.

        ``target_size`` is the real active-user count at ``t``; ``None``
        skips size adjustment entirely (NoEQ / baselines).
        """
        self._generate_new_points(t)
        if target_size is not None:
            self._adjust_size(t, int(target_size))

    def _generate_new_points(self, t: int) -> None:
        if not self._live:
            return
        space = self.model.space
        survivors: list[int] = []
        quitters: list[int] = []
        # Group live streams by current cell so each row's distribution is
        # computed once and destinations are sampled in a single draw.  The
        # outcome goes to the store as one round over its live vectors.
        live = np.asarray(self._live, dtype=np.int64)
        pos = self._live_positions(live)
        last = self.store.live_cells()[pos]
        all_lengths = self.store.live_lengths()[pos].astype(float)
        quit_at = np.zeros(live.size, dtype=bool)
        new_cells = np.empty(live.size, dtype=np.int64)
        by_cell: dict[int, list[int]] = {}
        for i, cell in enumerate(last.tolist()):
            by_cell.setdefault(cell, []).append(i)

        for cell, members in by_cell.items():
            move_probs, quit_raw = self.model.row_distribution(cell)
            destinations = space.out_destinations(cell)
            members = np.asarray(members, dtype=np.int64)
            rows_arr = live[members]
            lengths = all_lengths[members]
            if self.enable_termination and quit_raw > 0.0:
                quit_probs = np.minimum(lengths / self.lam * quit_raw, 1.0)
            else:
                quit_probs = np.zeros(len(members))
            draws = self.rng.random(len(members))
            quit_mask = draws < quit_probs
            stay = rows_arr[~quit_mask]
            quitters.extend(rows_arr[quit_mask].tolist())
            quit_at[pos[members[quit_mask]]] = True
            if stay.size:
                total = move_probs.sum()
                if total <= 0.0:
                    # All of the row's mass sits on quitting but the stream
                    # survived the quit draw: move uniformly over legal
                    # destinations rather than stalling the stream.
                    norm = np.full(len(destinations), 1.0 / len(destinations))
                else:
                    norm = move_probs / total
                next_cells = self.rng.choice(
                    len(destinations), size=stay.size, p=norm
                )
                new_cells[pos[members[~quit_mask]]] = np.asarray(
                    destinations, dtype=np.int64
                )[np.atleast_1d(next_cells)]
                survivors.extend(stay.tolist())

        self.store.advance(t, quit_at, new_cells[~quit_at])
        self._finished.extend(quitters)
        self._live = survivors

    def _adjust_size(self, t: int, target: int) -> None:
        if target < 0:
            raise ConfigurationError(f"target size must be >= 0, got {target}")
        deficit = target - len(self._live)
        if deficit > 0:
            self.spawn_from_entering(t, deficit)
            return
        if deficit == 0:
            return
        # Excess: terminate |deficit| streams, weighted by Q at last cells.
        n_drop = -deficit
        if not self.enable_termination:
            return
        quit_dist = self.model.quit_distribution()
        weights = quit_dist[self.live_last_cells()]
        # Blend in a tiny uniform component so the weight vector always has
        # enough non-zero entries for replacement-free sampling.
        weights = weights + 1e-9
        weights = weights / weights.sum()
        drop_idx = self.rng.choice(
            len(self._live), size=n_drop, replace=False, p=weights
        )
        dropped = [
            self._live.pop(int(i))
            for i in sorted(np.atleast_1d(drop_idx).tolist(), reverse=True)
        ]
        # Quitting at t means the final report happened at t-1, so the
        # store withdraws the cell just generated for t; this keeps the
        # synthetic active count equal to the target at every t.
        mask = np.zeros(self.store.n_live, dtype=bool)
        mask[self._live_positions(dropped)] = True
        self.store.drop(mask)
        self._finished.extend(dropped)
