"""The churn generator: determinism, legality, ordering and shape."""

import dataclasses

import numpy as np
import pytest
from workloads import (
    OLDENBURG,
    TDRIVE,
    WORKLOADS,
    ChurnGenerator,
    Shape,
    rounds_digest,
)

from repro.geo.grid import unit_grid
from repro.stream.events import StateKind
from repro.stream.reports import KIND_ENTER, KIND_MOVE, KIND_QUIT
from repro.stream.state_space import TransitionStateSpace

SPACE = TransitionStateSpace(unit_grid(6))
SMALL = Shape("small", n_active=400, mean_length=8.0, n_rounds=120)


def _rounds(shape=SMALL, seed=0, n=None):
    return list(ChurnGenerator(shape, seed, SPACE).rounds(n))


def test_same_seed_same_bytes_and_different_seed_differs():
    assert rounds_digest(_rounds(seed=3)) == rounds_digest(_rounds(seed=3))
    assert rounds_digest(_rounds(seed=3)) != rounds_digest(_rounds(seed=4))


def test_every_state_index_is_legal_and_matches_its_kind():
    kind_of = {
        StateKind.MOVE: KIND_MOVE, StateKind.ENTER: KIND_ENTER,
        StateKind.QUIT: KIND_QUIT,
    }
    for r in _rounds(n=25):
        assert r.state_idx.min() >= 0 and r.state_idx.max() < SPACE.size
        for idx, kind in zip(r.state_idx.tolist(), r.kinds.tolist()):
            state = SPACE.state_of(idx)  # raises on an undecodable index
            assert kind_of[state.kind] == kind
            if kind == KIND_MOVE:
                assert SPACE.grid.are_adjacent(state.origin, state.destination) or (
                    state.origin == state.destination
                )


def test_moves_continue_from_the_users_previous_cell():
    last_cell: dict[int, int] = {}
    for r in _rounds(n=30):
        for uid, idx, kind in zip(
            r.user_ids.tolist(), r.state_idx.tolist(), r.kinds.tolist()
        ):
            state = SPACE.state_of(idx)
            if kind == KIND_ENTER:
                assert uid not in last_cell
                last_cell[uid] = state.destination
            elif kind == KIND_MOVE:
                assert state.origin == last_cell[uid]
                last_cell[uid] = state.destination
            else:
                assert state.origin == last_cell.pop(uid)


def test_batches_are_uid_sorted_without_duplicates():
    for r in _rounds():
        assert np.all(np.diff(r.user_ids) > 0)


def test_enter_quit_bookkeeping_is_consistent():
    active: set[int] = set()
    for r in _rounds():
        entered = set(r.user_ids[r.kinds == KIND_ENTER].tolist())
        quitted = set(r.user_ids[r.kinds == KIND_QUIT].tolist())
        movers = set(r.user_ids[r.kinds == KIND_MOVE].tolist())
        assert not entered & active  # a uid enters once
        assert quitted <= active and movers <= active
        assert movers | quitted == active  # everyone active reports or quits
        active = (active - quitted) | entered
        assert r.n_active == len(active) == len(entered) + len(movers)
        assert int(r.cell_hist.sum()) == r.n_active


@pytest.mark.parametrize("shape", [SMALL, dataclasses.replace(TDRIVE, n_rounds=300)])
def test_active_count_and_mean_length_match_the_shape(shape):
    born: dict[int, int] = {}
    lengths = []
    for r in _rounds(shape):
        assert r.n_active == shape.n_active
        for uid in r.user_ids[r.kinds == KIND_ENTER].tolist():
            born[uid] = r.t
        for uid in r.user_ids[r.kinds == KIND_QUIT].tolist():
            start = born.pop(uid)
            # Only users who entered in the first half: the horizon's second
            # half is many mean lengths long, so almost none of them is
            # still active (censored) at the end.
            if start < shape.n_rounds // 2:
                lengths.append(r.t - start)
    assert abs(np.mean(lengths) - shape.mean_length) <= 0.05 * shape.mean_length


def test_workload_table_matches_benchmark_json():
    import json
    from pathlib import Path

    doc = json.loads(
        (Path(__file__).resolve().parents[3] / "BENCHMARK.json").read_text()
    )
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert WORKLOADS["oldenburg-session"].shape is OLDENBURG
    for entry in doc["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200
