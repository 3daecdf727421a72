"""Global mobility model (paper Section III-B, Eq. 6).

The model stores one estimated frequency per transition state.  From these it
derives, on demand:

* the **movement distribution** out of each cell, with the quit mass folded
  into the denominator::

      Pr(m_ij)        = f_ij / (Σ_{x ∈ N_ci} f_ix + f_iQ)
      Pr(quit | c_i)  = f_iQ / (Σ_{x ∈ N_ci} f_ix + f_iQ)

* the **entering distribution** ``Pr(e_i) = f_Ei / Σ f_Ex`` and the
  **quitting distribution** ``Pr(q_j) = f_jQ / Σ f_xQ``.

Frequencies are estimates from a debiased frequency oracle, so they may be
negative; all derivations clip at zero first (post-processing is free,
Theorem 2).  When a row carries no mass the model falls back to the uniform
distribution over that row's legal destinations, which keeps synthesis total.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.stream.state_space import TransitionStateSpace, distinct_cells

#: How many version bumps of dirty-row provenance are retained.  A compiled
#: model that falls further behind than this simply rebuilds in full; DMU
#: recompiles every round, so in practice the log holds one entry.
_DIRTY_LOG_LIMIT = 64


class GlobalMobilityModel:
    """Frequency store + distribution derivations over a state space."""

    def __init__(self, space: TransitionStateSpace) -> None:
        self.space = space
        self._freqs = np.zeros(space.size, dtype=float)
        self._version = 0
        self._cache: dict = {}
        # (version, dirty-origin array | None) per bump; None = "all rows".
        self._dirty_log: deque[tuple[int, Optional[np.ndarray]]] = deque(
            maxlen=_DIRTY_LOG_LIMIT
        )

    # ------------------------------------------------------------------ #
    # state access / update
    # ------------------------------------------------------------------ #
    @property
    def frequencies(self) -> np.ndarray:
        """Current estimated frequency of every state (read-only copy)."""
        return self._freqs.copy()

    @property
    def version(self) -> int:
        """Bumped on every update; lets callers invalidate derived caches."""
        return self._version

    def state(self) -> dict:
        """Frequencies and version; derived caches are rebuilt on demand."""
        return {"version": self._version, "frequencies": self._freqs}

    def load_state(self, state: dict) -> None:
        self._freqs = state["frequencies"].copy().reshape(self._freqs.shape)
        self._version = int(state["version"])
        self._cache.clear()
        self._dirty_log.clear()

    def set_all(self, freqs: np.ndarray) -> None:
        """Replace the full frequency vector (AllUpdate variant / init)."""
        freqs = np.asarray(freqs, dtype=float)
        if freqs.shape != self._freqs.shape:
            raise ConfigurationError(
                f"expected {self._freqs.shape} frequencies, got {freqs.shape}"
            )
        self._freqs = freqs.copy()
        self._invalidate()
        self._dirty_log.append((self._version, None))

    def update_selected(self, indices: Sequence[int], freqs: np.ndarray) -> None:
        """Overwrite only the selected states (the DMU path, Section III-C).

        ``freqs`` is the full freshly collected frequency vector; only the
        entries listed in ``indices`` are written into the model.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return
        freqs = np.asarray(freqs, dtype=float)
        if freqs.shape != self._freqs.shape:
            raise ConfigurationError(
                f"expected {self._freqs.shape} frequencies, got {freqs.shape}"
            )
        self._freqs[idx] = freqs[idx]
        self._invalidate()
        self._dirty_log.append((self._version, self.space.origins_of_states(idx)))

    def dirty_origins_since(self, version: int) -> Optional[np.ndarray]:
        """Origin cells whose Eq. 6 row changed after ``version``.

        Returns the distinct dirty origins accumulated over every bump in
        ``(version, current]``, or ``None`` when provenance is unavailable
        (a full :meth:`set_all` happened, or ``version`` predates the
        bounded journal) — callers must then rebuild everything.  An
        up-to-date ``version`` yields an empty array.
        """
        if version == self._version:
            return np.empty(0, dtype=np.int64)
        if version > self._version:
            return None
        entries = [(v, d) for v, d in self._dirty_log if v > version]
        # Every bump in (version, current] must be covered by the journal.
        if len(entries) != self._version - version:
            return None
        if any(d is None for _, d in entries):
            return None
        return distinct_cells(
            np.concatenate([d for _, d in entries]), self.space.n_cells
        )

    def _invalidate(self) -> None:
        self._version += 1
        self._cache.clear()

    def _clipped(self) -> np.ndarray:
        cached = self._cache.get("clipped")
        if cached is None:
            cached = np.clip(self._freqs, 0.0, None)
            self._cache["clipped"] = cached
        return cached

    def clipped_frequencies(self) -> np.ndarray:
        """The zero-clipped frequency vector (cached; treat as read-only).

        The synthesis plane's compiled-model assembly reads this directly
        so row recompilation is pure array gathering.
        """
        return self._clipped()

    # ------------------------------------------------------------------ #
    # derived distributions (Eq. 6)
    # ------------------------------------------------------------------ #
    def row_distribution(self, origin: int) -> tuple[np.ndarray, float]:
        """Movement probabilities out of ``origin`` plus the raw quit prob.

        Returns ``(move_probs, quit_prob)`` where ``move_probs`` aligns with
        :meth:`TransitionStateSpace.out_destinations` and
        ``move_probs.sum() + quit_prob == 1`` whenever the row has mass.  For
        a massless row the movement part is uniform and ``quit_prob`` is 0.
        """
        key = ("row", origin)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        f = self._clipped()
        out_idx = self.space.out_move_indices(origin)
        moves = f[out_idx]
        quit_mass = 0.0
        if self.space.include_eq:
            quit_mass = f[self.space.index_of_quit(origin)]
        denom = moves.sum() + quit_mass
        if denom <= 0.0:
            probs = np.full(out_idx.size, 1.0 / out_idx.size)
            result = (probs, 0.0)
        else:
            result = (moves / denom, float(quit_mass / denom))
        self._cache[key] = result
        return result

    def movement_probs(self, origin: int) -> np.ndarray:
        """``Pr(m_ij)`` over destinations of ``origin`` (Eq. 6, first line)."""
        return self.row_distribution(origin)[0]

    def quit_prob(self, origin: int) -> float:
        """Raw (un-reweighted) ``Pr(quit | c_i)``; see Eq. 8 for reweighting."""
        return self.row_distribution(origin)[1]

    def enter_distribution(self) -> np.ndarray:
        """``Pr(e_i)`` over all cells (Eq. 6, second line).

        Falls back to uniform when the entering states carry no mass so the
        synthesizer can always seed new streams.
        """
        cached = self._cache.get("enter")
        if cached is None:
            f = self._clipped()[self.space.enter_indices]
            total = f.sum()
            cached = f / total if total > 0 else np.full(f.size, 1.0 / f.size)
            self._cache["enter"] = cached
        return cached

    def quit_distribution(self) -> np.ndarray:
        """``Pr(q_j)`` over all cells (Eq. 6, second line)."""
        cached = self._cache.get("quit")
        if cached is None:
            f = self._clipped()[self.space.quit_indices]
            total = f.sum()
            cached = f / total if total > 0 else np.full(f.size, 1.0 / f.size)
            self._cache["quit"] = cached
        return cached

    # ------------------------------------------------------------------ #
    # matrix views (used by metrics and reports)
    # ------------------------------------------------------------------ #
    def transition_matrix(self) -> np.ndarray:
        """Dense ``|C| x |C|`` first-order Markov matrix (zero off-domain).

        Rows are origins; each row sums to ``1 − Pr(quit | origin)`` for
        rows with mass (the missing mass is the termination probability).
        Assembled over the space's padded row structure in one shot — no
        per-origin loop (``tests/core/test_mobility_model.py`` pins it to
        the :meth:`row_distribution` reference).
        """
        space = self.space
        n = space.n_cells
        out_pad, dest_pad, deg = space.padded_out_structure()
        width = out_pad.shape[1]
        mask = np.arange(width) < deg[:, None]
        f = self._clipped()
        moves = f[out_pad] * mask
        quit_mass = f[space.quit_indices] if space.include_eq else np.zeros(n)
        denom = moves.sum(axis=1) + quit_mass
        has_mass = denom > 0.0
        probs = np.where(
            has_mass[:, None],
            moves / np.where(has_mass, denom, 1.0)[:, None],
            mask / deg[:, None],
        )
        mat = np.zeros((n, n), dtype=float)
        mat[np.repeat(np.arange(n), deg), dest_pad[mask]] = probs[mask]
        return mat
