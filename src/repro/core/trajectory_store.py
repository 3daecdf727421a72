"""Round-major storage for synthetic trajectory streams.

RetraSyn advances every live synthetic stream once per timestamp, and
Table V of the paper names that step the per-timestamp bottleneck.  The
store therefore keeps what one round touches dense and contiguous, and
treats everything else as a view derived from an append-only round log
(change-data capture: the log is the source of truth):

* the **live vectors** — row id, current cell and length of every live
  stream, dense and in creation order.  The vectorized engine reads
  them whole and hands back position masks; a round compacts them once;
* the **round log** — one sealed record per timestamp, appended to
  chunked buffers that never copy on growth: the round's *column* (the
  cell at ``t`` of every stream active at ``t``, in creation order), the
  positions of the previous column whose streams ended before ``t``, and
  the number of streams born at ``t``;
* per-row ``birth`` and final ``length`` columns, in creation order.

Cells are held in the smallest signed dtype that fits the declared cell
count (1 byte per point up to 127 cells, 2 up to 32,767, else — or
undeclared — 4); accessors return ``int64``.  Beyond its cells, a row
costs 8 B of birth, 8 B of length and 4 B for the log entry that retires
it.

**Rounds.**  The newest round stays *open* until a later one opens, so
births and drops can still land in it.  Row ids are creation-order and
stable for life.  A round has three writes, all position masks over the
live vectors or new streams: :meth:`~TrajectoryStore.advance` opens the
next round, ending some streams and giving every other one its cell
there; :meth:`~TrajectoryStore.drop` ends live streams in the open round;
:meth:`~TrajectoryStore.append_streams` creates streams in it.  Together
they keep one invariant: every live stream holds the open round's cell.
Writes that would break it — opening a later round for live streams by
any other call than ``advance``, or a birth in a sealed round — are
refused with a :class:`~repro.exceptions.DatasetError`, as are cells
outside ``[0, n_cells)``.

**Views.**  :meth:`~TrajectoryStore.cells_at` and
:meth:`~TrajectoryStore.counts_matrix` read log columns directly.
Per-stream reads (:meth:`~TrajectoryStore.view`,
:meth:`~TrajectoryStore.flat_cells`, and :class:`StoreTrajectories` on top
of them) read the log's transpose — every row's cells, row after row —
which one replay of the log's compactions builds in O(points).  It is
cached until the store next changes, so a lazy view costs O(its length).

A checkpoint holds :meth:`TrajectoryStore.state`: the log as stored
(the sealed columns, removed positions and births, one concatenate of
chunks each), the live cells, the per-row lengths and the open round.
Births, the log's offsets, the live rows and lengths, the open round's
birth count and its ghosts' rows are left out, since one vector
expression over the lengths rebuilds each.
:meth:`TrajectoryStore.load_state` checks the frame whole — the log's
sizes against the lengths, removed positions and cells — and adopts it:
nothing is transposed on either side.  That each round removes exactly
the streams that end there takes a replay of the log to see, so the
replay that builds the transpose checks it, at the first history read.
"""

from __future__ import annotations

import bisect
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError, DatasetError
from repro.geo.trajectory import CellTrajectory
from repro.stream.slots import extend_log, reserve

#: Bounds on one log chunk: at least this many entries, at most this many
#: bytes.  Chunks grow with the log up to the cap, after which growth is
#: linear and never copies.
_MIN_CHUNK, _MAX_CHUNK_BYTES = 1 << 12, 1 << 20

#: Points histogrammed per step of :meth:`TrajectoryStore.counts_matrix`.
_COUNT_BLOCK = 1 << 18

_EMPTY = np.empty(0, dtype=np.int64)


def _merge_positions(skip: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Sorted union of two sorted, disjoint position sets.

    A stream leaves the live vectors once, so positions never repeat and
    ``np.union1d``'s unique pass (which, under numpy 2.x, imports
    ``numpy.ma`` on its first call) finds nothing to remove.
    """
    return np.sort(np.concatenate((skip, src))) if skip.size else src


def _cell_dtype(n_cells: Optional[int]) -> type:
    """Smallest signed dtype holding cell ids below ``n_cells``."""
    if n_cells is None:
        return np.int32
    return np.int8 if n_cells <= 127 else np.int16 if n_cells <= 32767 else np.int32


def _next_column(rows, removed, first_row: int, n_births: int) -> np.ndarray:
    """A column's rows from the previous column's: the ``removed`` positions
    dropped, then ``n_births`` new rows from ``first_row`` on appended."""
    if removed.size:
        keep = np.ones(rows.size, dtype=bool)
        keep[removed] = False
        rows = rows[keep]
    if n_births:
        rows = np.concatenate([rows, np.arange(first_row, first_row + n_births)])
    return rows


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lengths)])``."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(
        int(ends[-1]) if ends.size else 0, dtype=np.int64
    )


class _AppendLog:
    """An append-only 1-D buffer kept in chunks that never move."""

    def __init__(self, dtype) -> None:
        self.dtype = np.dtype(dtype)
        self._chunks: list[np.ndarray] = []
        self._starts: list[int] = []  # log offset of each chunk's first entry
        self._tail = 0  # entries written in the last chunk
        self.size = 0

    def _open_chunk(self, size: int) -> np.ndarray:
        chunk = np.empty(size, dtype=self.dtype)
        self._chunks.append(chunk)
        self._starts.append(self.size)
        self._tail = 0
        return chunk

    def append(self, values: np.ndarray) -> None:
        """Append ``values`` (cast to the log's dtype)."""
        done, count = 0, values.size
        while done < count:
            if not self._chunks or self._tail == self._chunks[-1].size:
                cap = max(_MAX_CHUNK_BYTES // self.dtype.itemsize, _MIN_CHUNK)
                size = min(max(self.size, _MIN_CHUNK), cap)
                self._open_chunk(max(size, count - done))
            chunk = self._chunks[-1]
            take = min(count - done, chunk.size - self._tail)
            chunk[self._tail : self._tail + take] = values[done : done + take]
            self._tail += take
            self.size += take
            done += take

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Entries ``[lo, hi)``: a view inside one chunk, else a copy."""
        i = bisect.bisect_right(self._starts, lo) - 1
        parts = []
        while lo < hi:
            start, chunk = self._starts[i], self._chunks[i]
            part = chunk[lo - start : min(hi - start, chunk.size)]
            parts.append(part)
            lo += part.size
            i += 1
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.empty(0, dtype=self.dtype)


class TrajectoryStore:
    """Trajectory database keyed by creation order: live vectors + round log.

    Parameters
    ----------
    initial_capacity:
        Live streams the live vectors hold before they grow.
    initial_horizon:
        Rounds the per-round index holds before it grows.
    n_cells:
        Cell ids lie in ``[0, n_cells)``: writes outside are refused, and a
        small declared count narrows the cell dtype from the ``int32``
        default.
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
        dtype = np.dtype(_cell_dtype(n_cells))
        self._n_cells = np.iinfo(dtype).max if n_cells is None else int(n_cells)
        # Live vectors, creation order: the first _n_live entries are used.
        # Views of them (live_cells(), live_lengths()) are valid only until
        # the next write.
        capacity = int(initial_capacity)
        self._rows = np.zeros(capacity, dtype=np.int64)
        self._cur = np.zeros(capacity, dtype=np.int64)
        self._len = np.zeros(capacity, dtype=np.int64)
        self._n_live = 0
        # Per-row columns, creation order; length 0 marks a live row.
        self._birth = np.zeros(0, dtype=np.int64)
        self._length = np.zeros(0, dtype=np.int64)
        self._n = 0
        # The round log: sealed round k (timestamp t0 + k) is the column
        # cells[col_start[k]:col_start[k+1]], the positions
        # removed[rm_start[k]:rm_start[k+1]] of column k-1 that it drops,
        # and round_births[k] new rows appended after them.
        self._cells = _AppendLog(dtype)
        self._removed = _AppendLog(np.int32)
        self._col_start = np.zeros(int(initial_horizon) + 1, dtype=np.int64)
        self._rm_start = np.zeros(int(initial_horizon) + 1, dtype=np.int64)
        self._round_births = np.zeros(int(initial_horizon), dtype=np.int64)
        self._n_rounds = 0
        self._t0 = 0
        self._t: Optional[int] = None  # the open round's timestamp
        self._reset_open_round(_EMPTY)
        self._by_row_cache: Optional[tuple] = None

    def _reset_open_round(self, ghost_pos: np.ndarray) -> None:
        """Open a round after the newest column.

        ``_skip`` holds the positions of that column whose streams left the
        live vectors (so an older live stream at position p sat at
        ``_src(p)`` there), which are the positions the open round drops.
        Streams ended while holding a cell of the open round are its
        *ghosts*: still in its column, dropped by the next one.
        """
        self._skip = ghost_pos
        self._ghost_rows = self._ghost_cells = _EMPTY
        self._n_born = 0

    # ------------------------------------------------------------------ #
    # checkpoint state
    # ------------------------------------------------------------------ #
    def state(self) -> dict:
        """The round log as stored, the live cells, the per-row lengths and
        the open round.

        What one vector expression rebuilds from the lengths stays out:
        births, the log's offsets, the live rows and lengths, the open
        round's birth count and its ghosts' rows.
        """
        return {
            "cell_dtype": self._cells.dtype.name, "t0": self._t0,
            "cells": self._cells.read(0, self._cells.size),
            "removed": self._removed.read(0, self._removed.size),
            "round_births": self._round_births[: self._n_rounds],
            "cur": self.live_cells(), "length": self._length[: self._n],
            "skip": self._skip, "ghost_cells": self._ghost_cells,
        }

    def load_state(self, state: dict) -> None:
        """Fill this store from :meth:`state`, adopting the log as it is.

        A checkpoint is outside input, so the frame is checked whole before
        anything changes: the log's sizes against the per-row lengths, each
        round's removed positions, every cell, and the open round.  Which
        streams a round removes takes a replay of the log to see, so
        :meth:`_by_row`'s replay checks that at the first history read.
        """
        dtype = self._cells.dtype
        if state["cell_dtype"] != dtype.name:  # the grid decides the dtype
            raise DatasetError(f"cells are {state['cell_dtype']!r}, not {dtype.name}")
        t0 = int(state["t0"])
        cells, removed, births, cur, length, skip, ghost_cells = (
            state[key] for key in (
                "cells", "removed", "round_births", "cur", "length", "skip",
                "ghost_cells",
            )
        )
        k, n = births.size, length.size
        n_born = n - int(births.sum()) if ((births >= 0) & (births <= n)).all() else -1
        if n_born < 0 or (k and not n) or ((length < 0) | (length > k + 1)).any():
            raise DatasetError(f"{n} rows do not fill the births of {k} rounds")
        # Round j (timestamp t0 + j; the open round is j = k) drops from the
        # previous column the streams that end at t0 + j, at the positions
        # ``removed`` (sealed rounds) then ``skip`` (the open round) hold,
        # and appends its births.  Streams that end at t0 + k + 1 are the
        # open round's ghosts.
        born = np.append(births, n_born)
        rounds = np.repeat(np.arange(k + 1), born)  # each row's birth round
        live = np.flatnonzero(length == 0)
        ghosts = n - n_born + np.flatnonzero(length[n - n_born :])
        ends_at = np.bincount((rounds + length)[length > 0], minlength=k + 2)
        gone = ends_at[: k + 1]
        sizes = np.cumsum(born - gone)
        rm_start = np.concatenate([[0], np.cumsum(gone)])
        drops = np.concatenate([removed, skip])
        if (
            ends_at.size != k + 2 or removed.size != rm_start[k]
            or skip.size != gone[k] or cells.size != sizes[:-1].sum()
        ):
            raise DatasetError(
                f"the log's {cells.size} cells and {drops.size} removals do "
                "not fit its rows' lengths"
            )
        if (
            cur.size != live.size or ghost_cells.size != ghosts.size
            or ends_at[k + 1] != ghosts.size
        ):
            raise DatasetError(f"inconsistent rows ({n}, {live.size}, {ghosts.size})")
        # Each round's removed positions strictly increase inside the
        # previous column.
        prev = np.concatenate([[0], sizes[:-1]]).repeat(gone)
        opens = np.zeros(drops.size, dtype=bool)
        opens[rm_start[:-1][gone > 0]] = True
        if (drops < 0).any() or (drops >= prev).any() or (
            (np.diff(drops) <= 0) & ~opens[1:]
        ).any():
            raise DatasetError("removed positions repeat or leave their column")
        for column in (cells, cur, ghost_cells):
            self._check_cells(column)

        self._n, self._n_live = n, 0
        self._birth, self._length = t0 + rounds, np.array(length, dtype=np.int64)
        self._rows, self._cur, self._len = (
            np.zeros(max(live.size, self._rows.size), dtype=np.int64)
            for _ in range(3)
        )
        self._place(live, cur, k + 1 - rounds[live])
        self._cells, self._removed = _AppendLog(dtype), _AppendLog(np.int32)
        self._cells.append(cells)
        self._removed.append(removed)
        self._col_start = np.concatenate([[0], np.cumsum(sizes[:-1])])
        self._rm_start = rm_start[: k + 1]
        self._round_births = np.array(births, dtype=np.int64)
        self._n_rounds, self._t0 = k, t0
        self._t = t0 + k if n else None
        self._skip = np.array(skip, dtype=np.int64)
        self._ghost_rows = ghosts
        self._ghost_cells = np.array(ghost_cells, dtype=np.int64)
        self._n_born = n_born
        self._by_row_cache = None

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
        """Finished streams."""
        return self._n - self._n_live

    def live_rows(self) -> np.ndarray:
        """Row ids of live streams, in creation order (do not mutate)."""
        return self._rows[: self._n_live]

    def live_cells(self) -> np.ndarray:
        """Current cell of each live stream, live order (do not mutate)."""
        return self._cur[: self._n_live]

    def live_lengths(self) -> np.ndarray:
        """Length of each live stream, live order (do not mutate)."""
        return self._len[: self._n_live]

    # ------------------------------------------------------------------ #
    # the open round
    # ------------------------------------------------------------------ #
    def _check_cells(self, cells: np.ndarray) -> None:
        """Refuse cells outside ``[0, n_cells)`` (two contiguous passes)."""
        if cells.size and (cells.min() < 0 or cells.max() >= self._n_cells):
            bad = cells[(cells < 0) | (cells >= self._n_cells)][0]
            raise DatasetError(f"cell {bad} outside [0, {self._n_cells})")

    def _src(self, pos: np.ndarray) -> np.ndarray:
        """Positions in the previous column of older live streams at ``pos``."""
        if not self._skip.size:
            return pos
        shift = self._skip - np.arange(self._skip.size)
        return pos + np.searchsorted(shift, pos, side="right")

    def _advance_to(self, t: int) -> None:
        """Seal rounds until ``t`` is the open one (the first call starts).

        Only :meth:`advance` moves live streams on, so a later round opens
        here only once no stream is live."""
        if self._t is None:
            self._t0 = self._t = t
            return
        if t < self._t:
            raise DatasetError(f"round {t} is sealed; the open round is {self._t}")
        if t > self._t and self._n_live:
            raise DatasetError(
                f"live streams cannot skip rounds: only advance moves them "
                f"from round {self._t} to {t}"
            )
        while self._t < t:
            self._seal()

    def _open_record(self) -> tuple:
        """The open round: its column, the previous column's positions it
        drops, and its ghosts' positions in the column."""
        n = self._n_live
        cells = self._cur[:n]
        if not self._ghost_rows.size:
            return cells, self._skip, _EMPTY
        at = np.searchsorted(self._rows[:n], self._ghost_rows)
        ghost_pos = at + np.arange(at.size)
        return np.insert(cells, at, self._ghost_cells), self._skip, ghost_pos

    def _seal(self) -> None:
        """Append the open round to the log and open the next timestamp."""
        column, removed, ghost_pos = self._open_record()
        k = self._n_rounds
        self._col_start = extend_log(self._col_start, k + 1, k + 2)
        self._rm_start = extend_log(self._rm_start, k + 1, k + 2)
        self._round_births = extend_log(self._round_births, k, k + 1)
        self._cells.append(column)
        self._removed.append(removed)
        self._col_start[k + 1] = self._cells.size
        self._rm_start[k + 1] = self._removed.size
        self._round_births[k] = self._n_born
        self._n_rounds, self._t = k + 1, self._t + 1
        self._reset_open_round(ghost_pos)

    def _place(self, rows, cells, lengths) -> None:
        """Append streams to the live vectors."""
        m, count = self._n_live, rows.size
        for name in ("_rows", "_cur", "_len"):
            setattr(self, name, reserve(getattr(self, name), m, m + count))
        self._rows[m : m + count] = rows
        self._cur[m : m + count] = cells
        self._len[m : m + count] = lengths
        self._n_live = m + count

    def _compact(self, keep: np.ndarray) -> None:
        """Keep the live positions where ``keep`` is set (fresh arrays)."""
        m = int(np.count_nonzero(keep))
        for name in ("_rows", "_cur", "_len"):
            old = getattr(self, name)
            new = np.empty(old.size, dtype=old.dtype)
            np.compress(keep, old[: self._n_live], out=new[:m])
            setattr(self, name, new)
        self._n_live = m

    # ------------------------------------------------------------------ #
    # the round's writes: position masks over the live vectors
    # ------------------------------------------------------------------ #
    def advance(self, t: int, quit_mask: np.ndarray, new_cells: np.ndarray) -> None:
        """Open round ``t``: the live streams at ``quit_mask`` end with
        their cell at ``t - 1``; every other one, in live order, takes the
        next entry of ``new_cells`` as its cell at ``t``."""
        t, n = int(t), self._n_live
        quits = np.flatnonzero(quit_mask)
        if self._t is None or t != self._t + 1 or quit_mask.size != n:
            raise DatasetError(f"cannot advance {n} live streams to round {t}")
        if new_cells.size != n - quits.size:
            raise DatasetError(
                f"{new_cells.size} cells for {n - quits.size} staying streams"
            )
        self._seal()
        self._by_row_cache = None
        if quits.size:
            self._length[self._rows[quits]] = self._len[quits]
            src = self._src(quits)
            self._skip = _merge_positions(self._skip, src)
            self._compact(~quit_mask)
        m = self._n_live
        self._cur[:m] = new_cells
        self._len[:m] += 1

    def drop(self, mask: np.ndarray) -> None:
        """End the live streams at ``mask`` in the open round.

        Each gives back its cell there and leaves the round's column, so
        its final cell is the previous round's — unless that is its only
        cell: a newborn keeps it and stays in the column as a *ghost*.
        """
        if mask.size != self._n_live:
            raise DatasetError(
                f"cannot drop with a mask of {mask.size} over {self._n_live} "
                "live streams"
            )
        pos = np.flatnonzero(mask)
        if not pos.size:
            return
        self._by_row_cache = None
        lengths = self._len[pos]
        newborn = lengths == 1
        self._length[self._rows[pos]] = np.maximum(lengths - 1, 1)
        src = self._src(pos[~newborn])
        self._skip = _merge_positions(self._skip, src)
        if newborn.any():
            rows = np.concatenate([self._ghost_rows, self._rows[pos[newborn]]])
            cells = np.concatenate([self._ghost_cells, self._cur[pos[newborn]]])
            order = np.argsort(rows)
            self._ghost_rows, self._ghost_cells = rows[order], cells[order]
        self._compact(~mask)

    def append_streams(self, t: int, cells) -> np.ndarray:
        """Create one live stream born at ``t`` per entry of ``cells``.

        ``t`` is the open round, or a later one while no stream is live.
        Returns the new rows.
        """
        cells = np.atleast_1d(np.asarray(cells, dtype=np.int64))
        if cells.size == 0:
            return np.empty(0, dtype=np.int64)
        self._check_cells(cells)
        self._advance_to(int(t))
        self._by_row_cache = None
        n, need = self._n, self._n + cells.size
        self._birth = extend_log(self._birth, n, need)
        self._length = extend_log(self._length, n, need)
        rows = np.arange(n, need, dtype=np.int64)
        self._birth[n:need] = self._t
        self._length[n:need] = 0
        self._place(rows, cells, 1)
        self._n = need
        self._n_born += cells.size
        return rows

    # ------------------------------------------------------------------ #
    # per-row array accessors
    # ------------------------------------------------------------------ #
    def lengths_of(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        out = self._length[rows]
        live = out == 0
        if live.any():
            out[live] = self._len[np.searchsorted(self.live_rows(), rows[live])]
        return out

    def births_of(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        return self._birth[rows]

    def lengths(self) -> np.ndarray:
        """Length of every stream ever created, in creation order."""
        out = self._length[: self._n].copy()
        out[self.live_rows()] = self.live_lengths()
        return out

    # ------------------------------------------------------------------ #
    # the log and its transpose
    # ------------------------------------------------------------------ #
    def _by_row(self) -> tuple:
        """Every stream's cells, row after row in creation order, and each
        row's start offset there: the log's transpose, built by replaying
        its compactions and cached until the store next changes.

        A loaded log's sizes fit its rows' lengths, so a round that removes
        only streams ending there leaves each column exactly the streams
        active at its timestamp; a round that removes others (a hostile
        checkpoint) is refused before its cells are placed."""
        if self._by_row_cache is None:
            lengths = self.lengths()
            starts = np.cumsum(lengths) - lengths
            flat = np.empty(int(lengths.sum()), dtype=self._cells.dtype)
            q = starts - self._birth[: self._n]  # row r's cell at t: q[r] + t
            end = self._birth[: self._n] + self._length[: self._n]  # live: birth
            rows, n_rows = _EMPTY, 0
            for k in range(self._n_rounds + (self._t is not None)):
                if k < self._n_rounds:
                    removed = self._removed.read(*self._rm_start[k : k + 2])
                    column = self._cells.read(*self._col_start[k : k + 2])
                    n_births = int(self._round_births[k])
                else:
                    column, removed, _ = self._open_record()
                    n_births = self._n_born
                if (end.take(rows.take(removed)) != self._t0 + k).any():
                    raise DatasetError(
                        f"round {self._t0 + k} of the log removes streams that "
                        "do not end there"
                    )
                rows = _next_column(rows, removed, n_rows, n_births)
                n_rows += n_births
                flat[q.take(rows) + self._t0 + k] = column
            self._by_row_cache = (flat, starts)
        return self._by_row_cache

    def flat_cells(self, rows) -> np.ndarray:
        """The requested rows' cells concatenated in row order.

        The wire format of result messages (and the dataset npz layout),
        gathered from the log's transpose.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return np.zeros(0, dtype=np.int64)
        flat, starts = self._by_row()
        if rows.size == self._n and (rows == np.arange(self._n)).all():
            return flat.astype(np.int64)
        return flat[_ranges(starts[rows], self.lengths_of(rows))].astype(np.int64)

    # ------------------------------------------------------------------ #
    # whole-store array accessors (the evaluation plane)
    # ------------------------------------------------------------------ #
    def cells_at(self, t: int) -> np.ndarray:
        """Cells of every stream (live or finished) active at ``t``.

        Row order is creation order, matching :meth:`all views <views>`.
        """
        k = int(t) - self._t0
        if self._t is None or not 0 <= k <= self._n_rounds:
            return np.zeros(0, dtype=np.int64)
        if k == self._n_rounds:
            return self._open_record()[0].astype(np.int64)
        return self._cells.read(*self._col_start[k : k + 2]).astype(np.int64)

    def counts_matrix(self, n_timestamps: int, n_cells: int) -> np.ndarray:
        """``(n_timestamps, n_cells)`` point-count matrix over all streams.

        Vectorized twin of ``StreamDataset.cell_counts_matrix``'s
        per-trajectory loop: one ``bincount`` per block of log columns.
        Points outside ``[0, n_timestamps)`` are clipped, matching the
        object implementation.
        """
        n_timestamps, n_cells = int(n_timestamps), int(n_cells)
        counts = np.zeros((n_timestamps, n_cells), dtype=np.int64)
        if self._t is None:
            return counts
        k, stop = max(0, -self._t0), min(self._n_rounds, n_timestamps - self._t0)
        starts = self._col_start[: self._n_rounds + 1]
        while k < stop:
            # Rounds [k, end) hold at most _COUNT_BLOCK points (or one round).
            end = int(np.searchsorted(starts, starts[k] + _COUNT_BLOCK, side="right"))
            end = min(max(end - 1, k + 1), stop)
            cells = self._cells.read(starts[k], starts[end])
            keys = np.repeat(np.arange(end - k) * n_cells, np.diff(starts[k : end + 1]))
            t = self._t0 + k
            counts[t : t + end - k] += np.bincount(
                keys + cells, minlength=(end - k) * n_cells
            ).reshape(end - k, n_cells)
            k = end
        if 0 <= self._t < n_timestamps:
            counts[self._t] += np.bincount(
                self._open_record()[0], minlength=n_cells
            )
        return counts

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
        flat, starts = self._by_row()
        start = int(starts[row])
        length = int(self.lengths_of(np.asarray([row]))[0])
        traj = CellTrajectory(
            int(self._birth[row]), flat[start : start + length].tolist(), user_id=row
        )
        traj.terminated = bool(self._length[row] > 0)
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
        n = store.n_total
        if self._rows.size and not (0 <= self._rows.min() and self._rows.max() < n):
            raise DatasetError(f"store rows in trajectory sequence outside [0, {n})")
        seen = np.zeros(n, dtype=bool)
        seen[self._rows] = True
        if int(np.count_nonzero(seen)) != self._rows.size:
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
