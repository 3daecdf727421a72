"""Columnar report plane: batches of user reports as numpy arrays.

The object-path curator moves reports around as ``(user_id,
TransitionState)`` tuples — one Python object per user per timestamp.  At
production population sizes that representation dominates the round cost:
allocation and per-user dict lookups.  This module defines the columnar wire
format the whole pipeline speaks instead:

* :class:`ReportBatch` — one timestamp's candidate reports as three
  parallel arrays: ``user_ids`` (int64), ``state_idx`` (int64 dense indices
  into the :class:`~repro.stream.state_space.TransitionStateSpace`, ``-1``
  for states the space cannot encode), and ``kinds`` (int8 transition
  family codes).  Batches flow unchanged from ingestion through selection,
  the frequency oracles and shard merging; shard workers receive index
  arrays, never pickled state objects.
* :class:`ColumnarStreamView` — per-timestamp ``ReportBatch`` views over a
  finished :class:`~repro.stream.stream.StreamDataset`, built in one
  vectorized pass over the trajectories.  Row order within a timestamp is
  the dataset's trajectory order, exactly matching
  :meth:`~repro.stream.stream.StreamDataset.participants_at`, so the
  columnar and object paths consume identical RNG streams.
* :func:`shard_of_array` — the vectorized twin of
  :func:`~repro.core.sharded.shard_of`.

The batch layout is the protocol's *wire format*; semantic meaning (which
index is which transition) stays owned by ``TransitionStateSpace``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import DomainError
from repro.stream.events import StateKind, TransitionState
from repro.stream.state_space import TransitionStateSpace

#: int8 transition-family codes backing ``ReportBatch.kinds``.
KIND_MOVE, KIND_ENTER, KIND_QUIT = 0, 1, 2

#: StateKind -> int8 kind code (the single source of truth for the codes).
KIND_OF_STATE = {
    StateKind.MOVE: KIND_MOVE,
    StateKind.ENTER: KIND_ENTER,
    StateKind.QUIT: KIND_QUIT,
}

#: Knuth multiplicative hash (same constant as repro.core.sharded).
_HASH_MULT = np.uint64(2654435761)
_MASK32 = np.uint64(0xFFFFFFFF)


def shard_of_array(user_ids: np.ndarray, n_shards: int) -> np.ndarray:
    """Vectorized shard assignment, bit-identical to ``shard_of``.

    The int64 → uint64 cast plus the 32-bit mask reproduce the scalar
    version exactly: truncating the product modulo 2^64 preserves the low
    32 bits the scalar code keeps.
    """
    uids = np.asarray(user_ids, dtype=np.int64).astype(np.uint64)
    h = (uids * _HASH_MULT) & _MASK32
    h ^= h >> np.uint64(16)
    return (h % np.uint64(n_shards)).astype(np.int64)


@dataclass(frozen=True)
class ReportBatch:
    """One timestamp's candidate reports, columnar.

    Attributes
    ----------
    user_ids:
        int64 array of reporting user ids.
    state_idx:
        int64 array of dense transition-state indices; ``-1`` marks a state
        the target space cannot encode (enter/quit rows under a NoEQ
        space).  Rows with ``-1`` must be filtered (``moves_only``) before
        reaching a frequency oracle.
    kinds:
        int8 array of ``KIND_MOVE`` / ``KIND_ENTER`` / ``KIND_QUIT`` codes.
    """

    user_ids: np.ndarray
    state_idx: np.ndarray
    kinds: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.user_ids)
        if len(self.state_idx) != n or len(self.kinds) != n:
            raise DomainError(
                f"ReportBatch columns disagree on length: "
                f"{n}/{len(self.state_idx)}/{len(self.kinds)}"
            )

    def __len__(self) -> int:
        return len(self.user_ids)

    def check_domain(self, space: TransitionStateSpace) -> None:
        """Refuse rows no round over ``space`` can take.

        Kind codes must be move/enter/quit and state indices must lie in
        ``[0, space.size)``.  Only enter/quit rows under a NoEQ space may
        carry the ``-1`` it gives them: those rows are filtered out before
        any oracle, while an EQ space reports them.  Vectorised min/max,
        so a session can run it on every batch before staging anything.
        """
        if not len(self):
            return
        kinds, idx = self.kinds, self.state_idx
        if kinds.min() < KIND_MOVE or kinds.max() > KIND_QUIT:
            bad = kinds[(kinds < KIND_MOVE) | (kinds > KIND_QUIT)][0]
            raise DomainError(f"unknown report kind code {int(bad)}")
        lo, hi = int(idx.min()), int(idx.max())
        floor = 0 if space.include_eq else -1
        if hi >= space.size or lo < floor:
            raise DomainError(
                f"state indices span [{lo}, {hi}]; this space takes "
                f"[{floor}, {space.size})"
            )
        if lo < 0 and (idx[kinds == KIND_MOVE] < 0).any():
            raise DomainError("a move report carries state index -1")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def empty() -> "ReportBatch":
        return ReportBatch(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int8),
        )

    @staticmethod
    def from_arrays(user_ids, state_idx, kinds) -> "ReportBatch":
        """Build from array-likes, normalising dtypes."""
        return ReportBatch(
            np.asarray(user_ids, dtype=np.int64),
            np.asarray(state_idx, dtype=np.int64),
            np.asarray(kinds, dtype=np.int8),
        )

    @staticmethod
    def from_participants(
        space: TransitionStateSpace,
        participants: Sequence[tuple[int, TransitionState]],
    ) -> "ReportBatch":
        """Bridge from the object representation, preserving row order.

        Enter/quit states that ``space`` cannot encode (NoEQ spaces) are
        kept with ``state_idx == -1`` so the caller's movement filter sees
        the same population as the object path did.
        """
        n = len(participants)
        uids = np.empty(n, dtype=np.int64)
        idx = np.empty(n, dtype=np.int64)
        kinds = np.empty(n, dtype=np.int8)
        encodable_eq = space.include_eq
        for i, (uid, state) in enumerate(participants):
            uids[i] = uid
            kind = KIND_OF_STATE[state.kind]
            kinds[i] = kind
            if kind == KIND_MOVE or encodable_eq:
                idx[i] = space.index_of(state)
            else:
                idx[i] = -1
        return ReportBatch(uids, idx, kinds)

    # ------------------------------------------------------------------ #
    # row operations
    # ------------------------------------------------------------------ #
    def take(self, rows: np.ndarray) -> "ReportBatch":
        """Sub-batch of the given row indices, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        return ReportBatch(
            self.user_ids[rows], self.state_idx[rows], self.kinds[rows]
        )

    def moves_only(self) -> "ReportBatch":
        """Rows holding movement reports (the NoEQ participation filter)."""
        return self.take(np.flatnonzero(self.kinds == KIND_MOVE))

    def partition(self, n_shards: int) -> list["ReportBatch"]:
        """Hash-partition rows into ``n_shards`` sub-batches.

        Row order within each partition is preserved, so a partitioned
        round consumes each shard's RNG exactly as an unpartitioned round
        over that shard's users would.
        """
        if n_shards == 1:
            return [self]
        sid = shard_of_array(self.user_ids, n_shards)
        return [self.take(np.flatnonzero(sid == k)) for k in range(n_shards)]


def as_report_batch(
    space: TransitionStateSpace,
    participants,
) -> ReportBatch:
    """Normalise either representation to a :class:`ReportBatch`."""
    if isinstance(participants, ReportBatch):
        return participants
    return ReportBatch.from_participants(space, participants)


class ColumnarStreamView:
    """Per-timestamp columnar views over a finished stream dataset.

    One pass over the trajectories builds four flat arrays (timestamp, user
    id, state index, kind); a stable sort groups them by timestamp while
    keeping trajectory order inside each group — the exact row order
    ``participants_at`` produces.  Every per-timestamp accessor is then an
    O(1) slice.
    """

    def __init__(self, dataset, space: TransitionStateSpace) -> None:
        self.dataset = dataset
        self.space = space
        self.n_timestamps = dataset.n_timestamps
        self._build(dataset, space)

    def _build(self, dataset, space: TransitionStateSpace) -> None:
        ts: list[np.ndarray] = []
        uids: list[np.ndarray] = []
        idxs: list[np.ndarray] = []
        kinds: list[np.ndarray] = []
        include_eq = space.include_eq
        enter_offset = getattr(space, "_enter_offset", None)
        quit_offset = getattr(space, "_quit_offset", None)
        for traj in dataset.trajectories:
            cells = np.asarray(traj.cells, dtype=np.int64)
            L = cells.size
            # enter at start, moves at start+1..end, quit at end+1
            t0 = traj.start_time
            n_rows = L + 1
            t_arr = np.arange(t0, t0 + n_rows, dtype=np.int64)
            uid_arr = np.full(n_rows, traj.user_id, dtype=np.int64)
            kind_arr = np.full(n_rows, KIND_MOVE, dtype=np.int8)
            kind_arr[0] = KIND_ENTER
            kind_arr[-1] = KIND_QUIT
            idx_arr = np.full(n_rows, -1, dtype=np.int64)
            if L > 1:
                idx_arr[1:L] = space.move_index_lookup(cells[:-1], cells[1:])
            if include_eq:
                idx_arr[0] = enter_offset + cells[0]
                idx_arr[-1] = quit_offset + cells[-1]
            ts.append(t_arr)
            uids.append(uid_arr)
            idxs.append(idx_arr)
            kinds.append(kind_arr)
        if ts:
            t_all = np.concatenate(ts)
            order = np.argsort(t_all, kind="stable")
            self._t = t_all[order]
            self._uid = np.concatenate(uids)[order]
            self._idx = np.concatenate(idxs)[order]
            self._kind = np.concatenate(kinds)[order]
        else:
            self._t = np.empty(0, dtype=np.int64)
            self._uid = np.empty(0, dtype=np.int64)
            self._idx = np.empty(0, dtype=np.int64)
            self._kind = np.empty(0, dtype=np.int8)
        bounds = np.searchsorted(
            self._t, np.arange(self.n_timestamps + 1, dtype=np.int64)
        )
        self._lo, self._hi = bounds[:-1], bounds[1:]

    def _slice(self, t: int) -> slice:
        if not 0 <= t < self.n_timestamps:
            raise DomainError(
                f"timestamp {t} outside [0, {self.n_timestamps})"
            )
        return slice(int(self._lo[t]), int(self._hi[t]))

    def batch_at(self, t: int) -> ReportBatch:
        """All candidate reports at ``t`` (row order = trajectory order)."""
        s = self._slice(t)
        return ReportBatch(self._uid[s], self._idx[s], self._kind[s])

    def newly_entered_at(self, t: int) -> np.ndarray:
        s = self._slice(t)
        return self._uid[s][self._kind[s] == KIND_ENTER]

    def quitted_at(self, t: int) -> np.ndarray:
        s = self._slice(t)
        return self._uid[s][self._kind[s] == KIND_QUIT]

    def n_active_at(self, t: int) -> int:
        """Streams with a location at ``t`` (enter + move reports)."""
        s = self._slice(t)
        return int((self._kind[s] != KIND_QUIT).sum())
