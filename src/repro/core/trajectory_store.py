"""Columnar (struct-of-arrays) storage for synthetic trajectory streams.

Both synthesis engines used to keep one Python ``CellTrajectory`` object per
synthetic stream (the object engine in ``_live`` / ``_finished`` lists, the
vectorized engine in private padded arrays).  At production populations the
object churn — allocation, append, list reshuffling, and re-materialisation
for every metrics pass — dominates the per-timestamp synthesis cost that
Table V of the paper identifies as the bottleneck.

:class:`TrajectoryStore` replaces both with one columnar layout that
follows the streams' lifetime — a terminated stream is never read by
synthesis again, so only live streams occupy the structures the hot path
touches:

* the **live block** — ``_block``, a compact ``(live slots, width)`` cell
  matrix holding exactly the live streams (slots are recycled through a
  free list), plus ``_current``, the current cell of every slot, so
  ``last_cells`` is a 1-D read, and ``_live``, the live row ids in
  creation order, maintained incrementally;
* the **archive** — finished streams' cells in CSR form: one flat,
  append-only cell log grown chunk by chunk (no copy on growth), with each
  finished row's start offset kept beside its birth and length;
* block and archive hold cells in the smallest signed dtype that fits the
  declared cell count and ``ABSENT`` (1 byte per point up to 127 cells, 2
  up to 32,767, else — or undeclared — 4); accessors return ``int64``;
* ``_birth`` / ``_length`` / ``_where`` — per-stream entering timestamp,
  length and location (live slot, or archive offset), dense arrays indexed
  by the stream's creation-order row id.

A stream moves from the block to the archive when it is killed.  Row ids
are creation-order and stable for life; ``CellTrajectory`` objects are
*views*, materialised only when a caller crosses an API boundary that
genuinely needs objects (:meth:`view` / :meth:`views`); the hot path and
the evaluation plane use the array accessors (:meth:`cells_at`,
:meth:`lengths`, :meth:`counts_by_cell`, :meth:`counts_matrix`) and never
touch objects.

A checkpoint holds :meth:`TrajectoryStore.state`: live cells, archive and
per-row columns, trimmed to what is used.  The store is shared safely by
the thread-sharded generation path (workers read disjoint row slabs; all
writes happen in the merge step).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError, DatasetError
from repro.geo.trajectory import CellTrajectory
from repro.stream.slots import extend_log, reserve

#: Padding value for never-written cells of the live block.
ABSENT = -1

#: Bounds on one archive chunk, in cells: chunks grow with the archive up
#: to the cap, after which growth is linear and never copies.
_MIN_CHUNK, _MAX_CHUNK = 1 << 12, 1 << 20

#: Streams histogrammed per step of :meth:`TrajectoryStore.counts_matrix`.
_COUNT_BLOCK = 1 << 14


def _cell_dtype(n_cells: Optional[int]) -> type:
    """Smallest signed dtype holding ``n_cells`` and :data:`ABSENT`."""
    if n_cells is None:
        return np.int32
    return np.int8 if n_cells <= 127 else np.int16 if n_cells <= 32767 else np.int32


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lengths)])``."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(
        int(ends[-1]) if ends.size else 0, dtype=np.int64
    )


class TrajectoryStore:
    """Trajectory database keyed by creation order: live block + archive.

    Parameters
    ----------
    initial_capacity:
        Live slots allocated up front (grown geometrically).
    initial_horizon:
        Cells-per-live-stream allocated up front (grown geometrically).
    n_cells:
        Cell ids are promised to lie in ``[0, n_cells)``, which lets the
        store pick a narrower cell dtype than the ``int32`` default.
    """

    def __init__(
        self,
        initial_capacity: int = 1024,
        initial_horizon: int = 64,
        n_cells: Optional[int] = None,
    ) -> None:
        if initial_capacity < 1 or initial_horizon < 1:
            raise ConfigurationError(
                f"store capacities must be >= 1, got "
                f"({initial_capacity}, {initial_horizon})"
            )
        # Live block: rows are slots, recycled through the free stack.  A
        # grown block and every archive chunk copy its dtype, so a restored
        # store keeps appending in the dtype it was written with.
        self._block = np.full(
            (int(initial_capacity), int(initial_horizon)),
            ABSENT,
            dtype=_cell_dtype(n_cells),
        )
        self._current = np.zeros(int(initial_capacity), dtype=np.int64)
        self._n_slots = 0  # slots ever handed out (high-water mark)
        self._free = np.empty(0, dtype=np.int64)
        self._n_free = 0
        # Live row ids, ascending: the first _n_live entries of a buffer
        # appended to in place and *replaced* by kill(), so views stay valid.
        self._live = np.empty(0, dtype=np.int64)
        self._n_live = 0
        # Per-row columns, creation order.  _where >= 0 is the live slot;
        # a finished row holds ~offset of its first cell in the archive.
        self._birth = np.zeros(0, dtype=np.int64)
        self._length = np.zeros(0, dtype=np.int64)
        self._where = np.zeros(0, dtype=np.int64)
        self._n = 0
        # Archive: cell chunks, all full except the last (filled to _tail).
        self._chunks: list[np.ndarray] = []
        self._tail = 0
        self._n_archived_cells = 0

    def state(self) -> dict:
        """Live cells (row order), archive and per-row columns, trimmed."""
        n, live = self._n, self.live_rows()
        return {
            "cell_dtype": self._block.dtype.name,
            "cells": self._block_cells(self._where[live], self._length[live]),
            "archive": self._archive()[: self._n_archived_cells],
            "free": self._free[: self._n_free], "live": live,
            "birth": self._birth[:n], "length": self._length[:n], "where": self._where[:n],
        }

    def load_state(self, state: dict) -> None:
        """Fill this store from :meth:`state`, rebuilding the live block."""
        dtype = self._block.dtype
        if state["cell_dtype"] != dtype.name:  # the grid decides the dtype
            raise ValueError(f"cells are {state['cell_dtype']!r}, not {dtype.name}")
        birth, length, where = state["birth"], state["length"], state["where"]
        live, free, cells, archive = (
            state[key] for key in ("live", "free", "cells", "archive")
        )
        n, n_slots = birth.size, live.size + free.size
        slots, lengths = where[live], length[live]
        done = np.flatnonzero(where < 0)
        starts = ~where[done]
        if (
            length.size != n or where.size != n or done.size + live.size != n
            or (live.size and (live[0] < 0 or (np.diff(live) <= 0).any()))
            or not np.array_equal(np.sort(np.concatenate([slots, free])), np.arange(n_slots))
            or (length < 1).any() or lengths.sum() != cells.size
            or (done.size and (starts + length[done]).max() > archive.size)
        ):
            raise ValueError(f"inconsistent rows ({n}, {live.size}, {free.size})")
        width = max(int(lengths.max(initial=1)), self._block.shape[1])
        self._current = np.zeros(max(n_slots, self._current.size), dtype=np.int64)
        self._block = np.full((self._current.size, width), ABSENT, dtype=dtype)
        self._block.reshape(-1)[_ranges(slots * width, lengths)] = cells
        self._current[slots] = self._block[slots, lengths - 1]
        self._n_slots, self._n_live, self._n_free, self._n = n_slots, live.size, free.size, n
        self._free, self._live = free.copy(), live.copy()
        self._birth, self._length, self._where = birth.copy(), length.copy(), where.copy()
        self._chunks = [archive.copy()] if archive.size else []
        self._tail = self._n_archived_cells = archive.size

    # ------------------------------------------------------------------ #
    # sizes / row sets
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._n

    @property
    def n_total(self) -> int:
        """Streams ever created."""
        return self._n

    @property
    def n_live(self) -> int:
        return self._n_live

    @property
    def n_archived(self) -> int:
        """Finished streams, whose cells live in the archive."""
        return self._n - self._n_live

    def live_rows(self) -> np.ndarray:
        """Row ids of live streams, in creation order (do not mutate)."""
        return self._live[: self._n_live]

    def alive_mask(self) -> np.ndarray:
        """Boolean liveness over all created rows."""
        return self._where[: self._n] >= 0

    # ------------------------------------------------------------------ #
    # live-block plumbing
    # ------------------------------------------------------------------ #
    def _take_slots(self, count: int) -> np.ndarray:
        """``count`` free live slots: recycled ones first, then fresh."""
        reuse = min(count, self._n_free)
        self._n_free -= reuse
        fresh = count - reuse
        if self._n_slots + fresh > self._block.shape[0]:
            self._current = reserve(
                self._current, self._n_slots, self._n_slots + fresh
            )
            self._resize_block(self._current.size, self._block.shape[1])
        slots = np.concatenate(
            [
                self._free[self._n_free : self._n_free + reuse],
                np.arange(self._n_slots, self._n_slots + fresh, dtype=np.int64),
            ]
        )
        self._n_slots += fresh
        return slots

    def _resize_block(self, n_slots: int, width: int) -> None:
        """Reallocate the live block; copies the slots in use only."""
        grown = np.full((n_slots, width), ABSENT, dtype=self._block.dtype)
        used = self._block[: self._n_slots]
        grown[: self._n_slots, : used.shape[1]] = used
        self._block = grown

    def _block_cells(self, slots: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The written cells of the given live slots, concatenated."""
        return self._block.reshape(-1).take(
            _ranges(slots * self._block.shape[1], lengths)
        )

    def _live_slots(self, rows: np.ndarray, doing: str) -> np.ndarray:
        slots = self._where[rows]
        if (slots < 0).any():
            raise DatasetError(f"cannot {doing} a finished stream")
        return slots

    def _archive(self) -> np.ndarray:
        """The archive's cell log as one array (chunks are merged)."""
        if len(self._chunks) > 1:
            merged = np.concatenate(
                self._chunks[:-1] + [self._chunks[-1][: self._tail]]
            )
            self._chunks, self._tail = [merged], merged.size
        return self._chunks[0] if self._chunks else self._block[:0, 0]

    def _archive_cells(self, cells: np.ndarray) -> None:
        """Append ``cells`` to the log, opening new chunks as needed."""
        done = 0
        while done < cells.size:
            if not self._chunks or self._tail == self._chunks[-1].size:
                size = min(max(self._n_archived_cells, _MIN_CHUNK), _MAX_CHUNK)
                self._chunks.append(
                    np.empty(max(size, cells.size - done), dtype=self._block.dtype)
                )
                self._tail = 0
            chunk = self._chunks[-1]
            take = min(cells.size - done, chunk.size - self._tail)
            chunk[self._tail : self._tail + take] = cells[done : done + take]
            self._tail += take
            done += take
        self._n_archived_cells += int(cells.size)

    # ------------------------------------------------------------------ #
    # mutation (the synthesizer hot path)
    # ------------------------------------------------------------------ #
    def append_streams(self, t: int, cells) -> np.ndarray:
        """Create one fresh live stream per entry of ``cells``; return rows."""
        cells = np.atleast_1d(np.asarray(cells, dtype=np.int64))
        count = cells.size
        if count == 0:
            return np.empty(0, dtype=np.int64)
        n, need = self._n, self._n + count
        self._birth = extend_log(self._birth, n, need)
        self._length = extend_log(self._length, n, need)
        self._where = extend_log(self._where, n, need)
        rows = np.arange(n, need, dtype=np.int64)
        slots = self._take_slots(count)
        self._block[slots, 0] = cells
        self._current[slots] = cells
        self._birth[rows] = int(t)
        self._length[rows] = 1
        self._where[rows] = slots
        self._live = reserve(self._live, self._n_live, self._n_live + count)
        self._live[self._n_live : self._n_live + count] = rows
        self._n_live += count
        self._n = need
        return rows

    def append_cells(self, rows: np.ndarray, cells: np.ndarray) -> None:
        """Extend each of ``rows`` by one cell (its next timestamp)."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return
        slots = self._live_slots(rows, "extend")
        lengths = self._length[rows]
        width = int(lengths.max()) + 1
        if width > self._block.shape[1]:
            self._resize_block(
                self._block.shape[0], max(width, 2 * self._block.shape[1])
            )
        self._block[slots, lengths] = cells
        self._current[slots] = cells
        self._length[rows] = lengths + 1

    def pop_last(self, rows: np.ndarray) -> None:
        """Withdraw the most recent cell of each row (length stays >= 1)."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return
        slots = self._live_slots(rows, "shorten")
        lengths = self._length[rows] - 1
        if (lengths < 1).any():
            raise DatasetError("cannot pop the only cell of a stream")
        self._length[rows] = lengths
        self._current[slots] = self._block[slots, lengths - 1]

    def kill(self, rows: np.ndarray) -> None:
        """Terminate the given streams (idempotent).

        Their cells move from the live block to the archive and their
        slots return to the free stack.
        """
        rows = np.asarray(rows, dtype=np.int64)
        slots = self._where[rows]
        # The synthesizer hands over ascending distinct live rows; anything
        # else (repeats, finished rows, any order) is normalised first.
        if (slots < 0).any() or (rows[1:] <= rows[:-1]).any():
            rows = np.unique(rows[slots >= 0])
            slots = self._where[rows]
        if rows.size == 0:
            return
        lengths = self._length[rows]
        starts = self._n_archived_cells + np.cumsum(lengths) - lengths
        self._archive_cells(self._block_cells(slots, lengths))
        self._where[rows] = ~starts
        live = self.live_rows()
        keep = np.ones(live.size, dtype=bool)
        keep[np.searchsorted(live, rows)] = False
        self._n_live -= int(rows.size)
        self._live = np.empty_like(self._live)
        self._live[: self._n_live] = live[keep]
        self._free = reserve(self._free, self._n_free, self._n_free + slots.size)
        self._free[self._n_free : self._n_free + slots.size] = slots
        self._n_free += int(slots.size)

    # ------------------------------------------------------------------ #
    # per-row array accessors
    # ------------------------------------------------------------------ #
    def last_cells(self, rows: np.ndarray) -> np.ndarray:
        """Current (latest) cell of each requested row."""
        rows = np.asarray(rows, dtype=np.int64)
        where = self._where[rows]
        done = where < 0
        if not done.any():
            return self._current[where]
        out = np.empty(rows.size, dtype=np.int64)
        out[~done] = self._current[where[~done]]
        out[done] = self._archive()[~where[done] + self._length[rows[done]] - 1]
        return out

    def lengths_of(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        return self._length[rows]

    def births_of(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        return self._birth[rows]

    def _gather(self, rows: np.ndarray, at=None) -> np.ndarray:
        """Cells of ``rows`` from wherever they live.

        ``at=None`` concatenates every row's whole stream in row order;
        otherwise ``at`` holds one position per row and one cell per row
        comes back.
        """
        where = self._where[rows]
        live = where >= 0
        if at is None:
            lengths = self._length[rows]
            out = np.empty(int(lengths.sum()), dtype=np.int64)
            dest = np.cumsum(lengths) - lengths
            if live.any():
                out[_ranges(dest[live], lengths[live])] = self._block_cells(
                    where[live], lengths[live]
                )
            if not live.all():
                done = ~live
                out[_ranges(dest[done], lengths[done])] = self._archive()[
                    _ranges(~where[done], lengths[done])
                ]
            return out
        out = np.empty(rows.size, dtype=np.int64)
        out[live] = self._block[where[live], at[live]]
        if not live.all():
            done = ~live
            out[done] = self._archive()[~where[done] + at[done]]
        return out

    def flat_cells(self, rows) -> np.ndarray:
        """The requested rows' cells concatenated in row order.

        The wire format of result messages (and the dataset npz layout):
        masked gathers over the live block and the archive, no per-stream
        object or list construction.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return np.zeros(0, dtype=np.int64)
        return self._gather(rows)

    # ------------------------------------------------------------------ #
    # whole-store array accessors (the evaluation plane)
    # ------------------------------------------------------------------ #
    def lengths(self) -> np.ndarray:
        """Length of every stream ever created, in creation order."""
        return self._length[: self._n].copy()

    def cells_at(self, t: int) -> np.ndarray:
        """Cells of every stream (live or finished) active at ``t``.

        Row order is creation order, matching :meth:`all views <views>`.
        """
        t = int(t)
        birth = self._birth[: self._n]
        active = (birth <= t) & (t < birth + self._length[: self._n])
        rows = np.flatnonzero(active)
        return self._gather(rows, at=t - birth[rows])

    def counts_by_cell(self, t: int, n_cells: int) -> np.ndarray:
        """Histogram of :meth:`cells_at` over ``[0, n_cells)``."""
        return np.bincount(self.cells_at(t), minlength=int(n_cells))

    def counts_matrix(self, n_timestamps: int, n_cells: int) -> np.ndarray:
        """``(n_timestamps, n_cells)`` point-count matrix over all streams.

        Vectorized twin of ``StreamDataset.cell_counts_matrix``'s
        per-trajectory loop: a gather of the streams' cells beside their
        timestamps plus a ``bincount``, one block of streams at a time.  Points outside
        ``[0, n_timestamps)`` are clipped, matching the object
        implementation.
        """
        n_timestamps = int(n_timestamps)
        n_cells = int(n_cells)
        n = self._n
        if n == 0 or n_timestamps == 0:
            return np.zeros((n_timestamps, n_cells), dtype=np.int64)
        counts = np.zeros(n_timestamps * n_cells, dtype=np.int64)
        # Row blocks keep the transient (timestamp, cell) arrays a few MB
        # however many points the archive holds.
        for lo in range(0, n, _COUNT_BLOCK):
            rows = np.arange(lo, min(n, lo + _COUNT_BLOCK), dtype=np.int64)
            ts = _ranges(self._birth[rows], self._length[rows])
            cells = self._gather(rows)
            valid = (ts >= 0) & (ts < n_timestamps)
            counts += np.bincount(
                ts[valid] * n_cells + cells[valid], minlength=counts.size
            )
        return counts.reshape(n_timestamps, n_cells)

    # ------------------------------------------------------------------ #
    # object views (API boundaries only)
    # ------------------------------------------------------------------ #
    def view(self, row: int) -> CellTrajectory:
        """Materialise one stream as a :class:`CellTrajectory`.

        ``user_id`` is the creation-order row id; ``terminated`` mirrors
        the store's liveness.  The view owns its cell list — mutating
        it does not write back into the store.
        """
        row = int(row)
        if not 0 <= row < self._n:
            raise DatasetError(f"stream row {row} outside [0, {self._n})")
        traj = CellTrajectory(
            int(self._birth[row]),
            self._gather(np.asarray([row], dtype=np.int64)).tolist(),
            user_id=row,
        )
        traj.terminated = bool(self._where[row] < 0)
        return traj

    def views(self, rows) -> list[CellTrajectory]:
        return [self.view(int(r)) for r in rows]

    def live_views(self) -> list[CellTrajectory]:
        return self.views(self.live_rows())

    def all_views(self) -> list[CellTrajectory]:
        """Every stream ever created, in creation order."""
        return self.views(range(self._n))


class StoreTrajectories:
    """A lazy, read-only trajectory sequence backed by a :class:`TrajectoryStore`.

    Looks like the ``list[CellTrajectory]`` a
    :class:`~repro.stream.stream.StreamDataset` holds, but materialises a
    :class:`CellTrajectory` view only when a caller actually indexes or
    iterates — so the batch-pipeline boundary
    (``OnlineRetraSyn.synthetic_dataset``) hands evaluation a dataset
    without building one object per synthetic stream up front.  Count-based
    metrics (primed via ``StreamDataset.prime_cell_counts``) never touch
    objects at all; object-consuming metrics pay only for what they read,
    and materialised views are cached for reuse.

    ``rows`` fixes both the sequence order and each view's ``user_id``
    (the store row id), so engines can preserve their historical trajectory
    ordering (e.g. finished-then-live for the object synthesizer).
    """

    def __init__(self, store: TrajectoryStore, rows) -> None:
        self._store = store
        self._rows = np.asarray(rows, dtype=np.int64)
        if self._rows.size != np.unique(self._rows).size:
            raise DatasetError("duplicate store rows in trajectory sequence")
        self._cache: dict[int, CellTrajectory] = {}

    # ------------------------------------------------------------------ #
    # sequence protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self._rows.size)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = int(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(index)
        if i not in self._cache:
            self._cache[i] = self._store.view(int(self._rows[i]))
        return self._cache[i]

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    # ------------------------------------------------------------------ #
    # array-side accessors (no object materialisation)
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> TrajectoryStore:
        return self._store

    @property
    def rows(self) -> np.ndarray:
        return self._rows

    def user_ids(self) -> list[int]:
        """The views' user ids (= store row ids), without materialising."""
        return self._rows.tolist()

    def index_of_user(self, user_id: int) -> int:
        """Sequence position of the stream with ``user_id`` (a row id)."""
        hits = np.flatnonzero(self._rows == int(user_id))
        if hits.size == 0:
            raise DatasetError(f"unknown user_id {user_id}")
        return int(hits[0])

    def horizon(self) -> int:
        """``max(end_time) + 2`` over the sequence — the stream horizon
        including each stream's quit-report timestamp (matches
        ``StreamDataset``'s derivation from object lists)."""
        if self._rows.size == 0:
            return 0
        ends = self._store.births_of(self._rows) + self._store.lengths_of(
            self._rows
        )
        return int(ends.max()) + 1
