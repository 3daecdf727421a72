"""Dense indexing of the transition-state domain under reachability.

The naive movement domain has ``|C|^2`` states; the paper restricts it to
transitions between adjacent cells (including self-loops), shrinking the
space to ``O(9|C|)`` and making the OUE encoding practical.  This module
assigns every legal state a dense integer index::

    [movement states, ordered by (origin, destination)] ++
    [enter states, ordered by cell] ++
    [quit states, ordered by cell]

and precomputes the index groups needed to normalise the mobility model
row-by-row (paper Eq. 6).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.exceptions import DomainError
from repro.geo.grid import Grid
from repro.stream.events import StateKind, TransitionState


def distinct_cells(cells: np.ndarray, n_cells: int) -> np.ndarray:
    """The sorted distinct values of ``cells`` (ids in ``[0, n_cells)``).

    A presence count instead of ``np.unique``, which sorts and, under
    numpy 2.x, imports ``numpy.ma`` on its first call.
    """
    return np.flatnonzero(np.bincount(cells, minlength=n_cells))


class TransitionStateSpace:
    """Bijective mapping between legal transition states and dense indices.

    Parameters
    ----------
    grid:
        The discretisation grid; defines cells and adjacency.
    include_entering_quitting:
        When ``False`` the space contains only movement states — used by the
        NoEQ ablation variant and by the LDP-IDS baselines, which do not
        model enter/quit events.
    """

    def __init__(self, grid: Grid, include_entering_quitting: bool = True) -> None:
        self.grid = grid
        self.include_eq = bool(include_entering_quitting)

        self._move_pairs: list[tuple[int, int]] = []
        self._move_index: dict[tuple[int, int], int] = {}
        for origin in range(grid.n_cells):
            for dest in grid.neighbor_lists[origin]:
                self._move_index[(origin, dest)] = len(self._move_pairs)
                self._move_pairs.append((origin, dest))

        self.n_move = len(self._move_pairs)
        self.n_cells = grid.n_cells
        self._enter_offset = self.n_move
        self._quit_offset = self.n_move + (self.n_cells if self.include_eq else 0)
        self.size = self.n_move + (2 * self.n_cells if self.include_eq else 0)

        # Row groups for Eq. 6: indices of movement states leaving each cell.
        self._out_move_indices: list[np.ndarray] = []
        for origin in range(grid.n_cells):
            idx = [self._move_index[(origin, d)] for d in grid.neighbor_lists[origin]]
            self._out_move_indices.append(np.asarray(idx, dtype=np.int64))

        # Flat (origin * n_cells + dest) -> move index table for vectorized
        # lookups; -1 marks illegal pairs.  Only materialised while the
        # quadratic table stays small; larger grids fall back to the dict.
        self._flat_move_lookup: np.ndarray | None = None
        if self.n_cells * self.n_cells <= 4_000_000:
            flat = np.full(self.n_cells * self.n_cells, -1, dtype=np.int64)
            for (origin, dest), i in self._move_index.items():
                flat[origin * self.n_cells + dest] = i
            self._flat_move_lookup = flat

        # Origin cell of every movement state (move_pairs is origin-ordered).
        self.move_origins = np.asarray(
            [o for o, _ in self._move_pairs], dtype=np.int64
        )
        self._padded_out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    # state -> index
    # ------------------------------------------------------------------ #
    def index_of_move(self, origin: int, destination: int) -> int:
        key = (origin, destination)
        if key not in self._move_index:
            raise DomainError(
                f"movement {origin}->{destination} violates the reachability "
                f"constraint (cells are not adjacent)"
            )
        return self._move_index[key]

    def index_of_enter(self, cell: int) -> int:
        self._require_eq("enter")
        self._check_cell(cell)
        return self._enter_offset + cell

    def index_of_quit(self, cell: int) -> int:
        self._require_eq("quit")
        self._check_cell(cell)
        return self._quit_offset + cell

    def move_index_lookup(
        self, origins: np.ndarray, destinations: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`index_of_move` over parallel cell arrays."""
        origins = np.asarray(origins, dtype=np.int64)
        destinations = np.asarray(destinations, dtype=np.int64)
        if origins.size and (
            origins.min() < 0 or origins.max() >= self.n_cells
            or destinations.min() < 0 or destinations.max() >= self.n_cells
        ):
            raise DomainError("cell ids outside the grid")
        if self._flat_move_lookup is not None:
            out = self._flat_move_lookup[origins * self.n_cells + destinations]
        else:
            out = np.asarray(
                [
                    self._move_index.get((int(o), int(d)), -1)
                    for o, d in zip(origins, destinations)
                ],
                dtype=np.int64,
            )
        if out.size and out.min() < 0:
            bad = int(np.flatnonzero(out < 0)[0])
            raise DomainError(
                f"movement {int(origins[bad])}->{int(destinations[bad])} "
                f"violates the reachability constraint (cells are not adjacent)"
            )
        return out

    def index_of(self, state: TransitionState) -> int:
        if state.kind is StateKind.MOVE:
            return self.index_of_move(state.origin, state.destination)
        if state.kind is StateKind.ENTER:
            return self.index_of_enter(state.destination)
        return self.index_of_quit(state.origin)

    # ------------------------------------------------------------------ #
    # index -> state
    # ------------------------------------------------------------------ #
    def state_of(self, index: int) -> TransitionState:
        if not 0 <= index < self.size:
            raise DomainError(f"state index {index} outside [0, {self.size})")
        if index < self.n_move:
            origin, dest = self._move_pairs[index]
            return TransitionState.move(origin, dest)
        if index < self._quit_offset:
            return TransitionState.enter(index - self._enter_offset)
        return TransitionState.quit(index - self._quit_offset)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[TransitionState]:
        return (self.state_of(i) for i in range(self.size))

    # ------------------------------------------------------------------ #
    # structured views
    # ------------------------------------------------------------------ #
    @property
    def move_pairs(self) -> list[tuple[int, int]]:
        """All legal ``(origin, destination)`` pairs in index order."""
        return list(self._move_pairs)

    def out_move_indices(self, origin: int) -> np.ndarray:
        """Indices of movement states leaving ``origin`` (incl. self-loop)."""
        self._check_cell(origin)
        return self._out_move_indices[origin]

    def out_destinations(self, origin: int) -> list[int]:
        """Destination cells reachable from ``origin``, index-aligned with
        :meth:`out_move_indices`."""
        return self.grid.neighbor_lists[origin]

    def padded_out_structure(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Static padded row structure for vectorized Eq. 6 assembly.

        Returns ``(out_state_pad, dest_pad, degrees)`` where

        * ``out_state_pad`` is ``(n_cells, width)`` movement-state indices
          (row ``i`` holds :meth:`out_move_indices`, zero-padded — callers
          mask by ``degrees``);
        * ``dest_pad`` is the matching destination-cell matrix, padded by
          repeating the row's last legal destination so an inverse-CDF
          lookup can never step off the row;
        * ``degrees`` is the per-origin legal-destination count.

        Built once per space and cached; all three arrays are shared
        read-only by compiled mobility models and the matrix views.
        """
        if self._padded_out is None:
            degrees = np.asarray(
                [len(self.grid.neighbor_lists[c]) for c in range(self.n_cells)],
                dtype=np.int64,
            )
            width = int(degrees.max(initial=1))
            out_pad = np.zeros((self.n_cells, width), dtype=np.int64)
            dest_pad = np.zeros((self.n_cells, width), dtype=np.int64)
            for c in range(self.n_cells):
                idx = self._out_move_indices[c]
                dests = self.grid.neighbor_lists[c]
                out_pad[c, : idx.size] = idx
                dest_pad[c, : len(dests)] = dests
                dest_pad[c, len(dests):] = dests[-1]
            self._padded_out = (out_pad, dest_pad, degrees)
        return self._padded_out

    def origins_of_states(self, indices) -> np.ndarray:
        """Distinct origin cells whose Eq. 6 row depends on the given states.

        Movement states dirty their origin's row; quit states dirty their
        cell's row (the quit mass sits in the row denominator); entering
        states touch no row — they only feed the entering distribution.
        Used by the synthesis plane to recompile exactly the rows a DMU
        round changed.
        """
        idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        if idx.size == 0:
            return np.empty(0, dtype=np.int64)
        if idx.min() < 0 or idx.max() >= self.size:
            raise DomainError(f"state indices outside [0, {self.size})")
        parts = [self.move_origins[idx[idx < self.n_move]]]
        if self.include_eq:
            quits = idx[idx >= self._quit_offset]
            parts.append(quits - self._quit_offset)
        return distinct_cells(np.concatenate(parts), self.n_cells)

    @property
    def enter_indices(self) -> np.ndarray:
        """Indices of all enter states, ordered by cell."""
        self._require_eq("enter")
        return np.arange(self._enter_offset, self._enter_offset + self.n_cells)

    @property
    def quit_indices(self) -> np.ndarray:
        """Indices of all quit states, ordered by cell."""
        self._require_eq("quit")
        return np.arange(self._quit_offset, self._quit_offset + self.n_cells)

    @property
    def move_indices(self) -> np.ndarray:
        """Indices of all movement states."""
        return np.arange(self.n_move)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _check_cell(self, cell: int) -> None:
        if not 0 <= cell < self.n_cells:
            raise DomainError(f"cell id {cell} outside [0, {self.n_cells})")

    def _require_eq(self, what: str) -> None:
        if not self.include_eq:
            raise DomainError(
                f"this state space excludes entering/quitting states ({what})"
            )
