"""Seeded, vectorised churn workloads of the round-cost benchmark.

A workload is a *shape* (how many users are active at once, how long they
stay, how many timestamps) driven through one *boundary* of the system
(which session, which transport, how many shards).  The shapes follow the
paper's Table I; the population itself is generated here with numpy only,
lazily one round at a time, so the resident workload data is one round.

Churn model: a constant number of users is active.  Every round each
active user moves to a neighbouring cell (hotspot-skewed, always a legal
``TransitionStateSpace`` move), a ``1/mean_length`` fraction of them quit,
and as many new user ids enter.  A quit is reported at the timestamp after
the user's last location, as ``RetraSyn.run`` replays a finished dataset.
User ids are handed out in entry order, so every batch is uid-sorted
without a sort.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.stream.reports import KIND_ENTER, KIND_MOVE, KIND_QUIT

#: Exponent of the cell-popularity power law (0 = uniform moves).
HOTSPOT_SKEW = 0.8

#: Paper Table II defaults shared by every workload.
GRID_K = 6
EPSILON = 1.0
W = 20


@dataclass(frozen=True)
class Shape:
    """Population shape: concurrency, churn rate and horizon.

    ``n_rounds`` is what one pass drives: twice the paper's horizons
    (T-Drive 886 timestamps, Oldenburg 500), so that the state that grows
    with every uid ever seen — ledger, tracker, trajectory store — and the
    growth stalls it causes are part of what a run measures.
    """

    name: str
    n_active: int
    mean_length: float
    n_rounds: int


#: T-Drive: short taxi trips, 10-minute slots.
TDRIVE = Shape("tdrive", n_active=3_600, mean_length=13.6, n_rounds=1_772)
#: Oldenburg (Brinkhoff) at half scale; long trips, every user reports.
OLDENBURG = Shape("oldenburg", n_active=16_000, mean_length=60.0, n_rounds=1_000)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a shape behind one boundary of the system.

    ``reference`` holds the spec fields that differ in the run this
    workload's first rounds must equal bit for bit (empty = no reference).
    ``jsd_ceiling`` is 1.5 x the mean per-round density JSD measured at
    seed 0 on the commit that added the benchmark.
    """

    name: str
    why: str
    shape: Shape
    boundary: str  # "http" (served child + Client) | "session" (in-process)
    division: str
    transport: str
    n_shards: int
    shard_executor: str
    max_lateness: int
    jsd_ceiling: float
    reference: tuple = ()

    def spec_fields(self, seed: int) -> dict:
        """Flat ``SessionSpec.from_flat`` fields of this workload's session."""
        return {
            "epsilon": EPSILON,
            "w": W,
            "division": self.division,
            "engine": "vectorized",
            "oracle_mode": "fast",
            "accountant_mode": "columnar",
            "track_privacy": True,
            "round_batch": 1,
            "transport": self.transport,
            "max_lateness": self.max_lateness,
            "n_shards": self.n_shards,
            "shard_executor": self.shard_executor,
            "seed": int(seed),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tdrive-http",
            why="small rounds through the served HTTP boundary with a lagging "
                "gateway: per-round fixed cost and out-of-order assembly dominate",
            shape=TDRIVE, boundary="http", division="population",
            transport="ingest", n_shards=1, shard_executor="serial",
            max_lateness=1, jsd_ceiling=0.3071,
            reference=(("boundary", "session"),),
        ),
        Workload(
            name="tdrive-shards",
            why="same small rounds in-process on two distributed shard workers: "
                "shard-RPC fixed overhead dominates and HTTP is bypassed",
            shape=TDRIVE, boundary="session", division="population",
            transport="ingest", n_shards=2, shard_executor="distributed",
            max_lateness=0, jsd_ceiling=0.3102,
            reference=(("shard_executor", "serial"),),
        ),
        Workload(
            name="oldenburg-session",
            why="large rounds, budget division, direct in-process session: "
                "per-report oracle, ledger and synthesis work dominates; "
                "bypasses all transport",
            shape=OLDENBURG, boundary="session", division="budget",
            transport="direct", n_shards=1, shard_executor="serial",
            max_lateness=0, jsd_ceiling=0.4158,
        ),
        Workload(
            name="oldenburg-shards",
            why="large rounds, population division on two distributed shards: "
                "bytes moved, merge and tracker selection at 16k rows",
            shape=OLDENBURG, boundary="session", division="population",
            transport="ingest", n_shards=2, shard_executor="distributed",
            max_lateness=0, jsd_ceiling=0.3589,
            reference=(("shard_executor", "serial"),),
        ),
    )
}


@dataclass(frozen=True)
class Round:
    """One timestamp's candidate reports (uid-sorted) and the real density."""

    t: int
    user_ids: np.ndarray
    state_idx: np.ndarray
    kinds: np.ndarray
    n_active: int
    cell_hist: np.ndarray  # real users per cell at ``t`` (enter + move rows)

    def __len__(self) -> int:
        return len(self.user_ids)


class ChurnGenerator:
    """Lazy round source for one shape and seed.

    ``space`` is the curator's ``TransitionStateSpace``: the generator reads
    only its public index tables, so every state index it emits is one the
    curator can decode.
    """

    def __init__(self, shape: Shape, seed: int, space) -> None:
        self.shape = shape
        self._rng = np.random.default_rng([int(seed), shape.n_active])
        out_pad, dest_pad, degrees = space.padded_out_structure()
        self._out_pad, self._dest_pad = out_pad, dest_pad
        self._enter0 = int(space.enter_indices[0])
        self._quit0 = int(space.quit_indices[0])
        self._n_cells = int(space.n_cells)

        popularity = (1.0 + self._rng.permutation(self._n_cells)) ** -HOTSPOT_SKEW
        self._enter_p = popularity / popularity.sum()
        # Per-origin cumulative move probabilities, weight ∝ destination
        # popularity; columns beyond a row's degree are pinned at 1.0 so the
        # inverse-CDF lookup can never step off the legal destinations.
        weights = popularity[dest_pad] * (
            np.arange(dest_pad.shape[1])[None, :] < degrees[:, None]
        )
        cum = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
        cum[np.arange(self._n_cells), degrees - 1] = 1.0
        cum[np.arange(dest_pad.shape[1])[None, :] >= degrees[:, None]] = 1.0
        self._cum = cum

        self._uids = np.empty(0, dtype=np.int64)
        self._cells = np.empty(0, dtype=np.int64)
        self._quits = np.zeros(0, dtype=bool)  # who of _uids quit last round
        self._next_uid = 0
        self._t = 0

    def _enter(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        uids = np.arange(self._next_uid, self._next_uid + count, dtype=np.int64)
        self._next_uid += count
        cells = self._rng.choice(self._n_cells, size=count, p=self._enter_p)
        return uids, cells.astype(np.int64)

    def next_round(self) -> Round:
        """Generate the next timestamp (rounds must be taken in order)."""
        t, shape = self._t, self.shape
        if t == 0:
            uids, cells = self._enter(shape.n_active)
            state_idx = self._enter0 + cells
            kinds = np.full(uids.size, KIND_ENTER, dtype=np.int8)
            stay_uids, stay_cells = uids, cells
        else:
            prev_uids, prev_cells, quits = self._uids, self._cells, self._quits
            draws = self._rng.random(prev_uids.size)
            j = (draws[:, None] > self._cum[prev_cells]).sum(axis=1)
            moved_cells = self._dest_pad[prev_cells, j]
            old_state = np.where(
                quits, self._quit0 + prev_cells, self._out_pad[prev_cells, j]
            )
            old_kinds = np.where(quits, KIND_QUIT, KIND_MOVE).astype(np.int8)
            new_uids, new_cells = self._enter(int(quits.sum()))
            uids = np.concatenate([prev_uids, new_uids])
            state_idx = np.concatenate([old_state, self._enter0 + new_cells])
            kinds = np.concatenate(
                [old_kinds, np.full(new_uids.size, KIND_ENTER, dtype=np.int8)]
            )
            stay_uids = np.concatenate([prev_uids[~quits], new_uids])
            stay_cells = np.concatenate([moved_cells[~quits], new_cells])
        # Who leaves after this round: a 1/mean_length share, stochastically
        # rounded so the realised mean length is unbiased.
        target = shape.n_active / shape.mean_length
        n_quit = int(target) + int(self._rng.random() < target - int(target))
        quits = np.zeros(stay_uids.size, dtype=bool)
        quits[self._rng.choice(stay_uids.size, size=n_quit, replace=False)] = True
        self._uids, self._cells, self._quits = stay_uids, stay_cells, quits
        self._t = t + 1
        return Round(
            t=t,
            user_ids=uids,
            state_idx=state_idx.astype(np.int64),
            kinds=kinds,
            n_active=int(stay_uids.size),
            cell_hist=np.bincount(stay_cells, minlength=self._n_cells),
        )

    def rounds(self, n_rounds: int | None = None) -> Iterator[Round]:
        """The first ``n_rounds`` rounds (default: the shape's horizon)."""
        for _ in range(self.shape.n_rounds if n_rounds is None else n_rounds):
            yield self.next_round()


def rounds_digest(rounds) -> str:
    """SHA-256 over every column of every round (the same-bytes check)."""
    digest = hashlib.sha256()
    for r in rounds:
        for column in (r.user_ids, r.state_idx, r.kinds, r.cell_hist):
            digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()
