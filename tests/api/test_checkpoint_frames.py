"""Checkpoint files (format v7): a fuzzed loader and a never-unpickled past.

A checkpoint is RSF2 frames — a header, then one ``state`` frame per
component — so the loader is a decoder like the ingress's, and gets the
same treatment: the 16 mutation classes of ``test_binary_frames`` are
applied to every frame of small K=1 and K=2 checkpoints, and each load
must either succeed or end in a :class:`~repro.exceptions.ReproError`,
within a memory budget set by the file's size.  Pickle files of the old
formats are refused without ever being unpickled.
"""

from __future__ import annotations

import pickle
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_binary_frames import _MUTATIONS, _hostile_scalars, _join, _mutate, _split

from repro.api import schema
from repro.api.session import load_session
from repro.api.specs import SessionSpec
from repro.core.online import OnlineRetraSyn
from repro.core.persistence import (
    load_checkpoint,
    peek_checkpoint_spec,
    save_checkpoint,
)
from repro.datasets.synthetic import make_random_walks
from repro.exceptions import DatasetError, ReproError

#: Between them the two shapes write every component kind: report phases
#: and trackers (population, "random"), the budget window and the schedule
#: ledger (budget division), object and vectorized synthesizers, per-shard
#: frames.
_SHAPES = {
    "K1": dict(n_shards=1, allocator="random", engine="object"),
    "K2": dict(
        n_shards=2, division="budget", engine="vectorized", synthesis_shards=2
    ),
}


def _frames(blob: bytes) -> list[bytes]:
    """The raw frames of a checkpoint file, in order."""
    frames, offset = [], 0
    while offset < len(blob):
        _msg, end = schema.load_frame(blob, offset)
        frames.append(blob[offset:end])
        offset = end
    return frames


def _load_peak(path):
    """``(curator or None, peak traced bytes)`` of one checkpoint load."""
    tracemalloc.start()
    try:
        curator = load_checkpoint(path)
    except ReproError:
        curator = None
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    if curator is not None:
        curator.close()
    return curator, peak


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """``{shape: (file bytes, peak bytes of loading it)}``."""
    data = make_random_walks(k=4, n_streams=40, n_timestamps=8, seed=2)
    out = {}
    for label, shape in _SHAPES.items():
        spec = SessionSpec(epsilon=1.0, w=3, seed=5, **shape)
        curator = OnlineRetraSyn(data.grid, spec, lam=4.0)
        for t in range(6):
            curator.process_timestep(
                t,
                participants=data.participants_at(t),
                newly_entered=data.newly_entered_at(t),
                quitted=data.quitted_at(t),
                n_real_active=data.n_active_at(t),
            )
        path = tmp_path_factory.mktemp(label) / "c.ckpt"
        save_checkpoint(curator, path, spec=spec)
        curator.close()
        restored, peak = _load_peak(path)
        assert restored is not None
        out[label] = (path.read_bytes(), peak)
    return out


@st.composite
def _hostile_checkpoints(draw, blob: bytes, mutation: str):
    """``blob`` with one of its frames mutated by ``mutation``."""
    frames = _frames(blob)
    if mutation in ("field_t", "field_n", "field_n_real_active"):
        # The report-batch fields have no namesake here: hit a field the
        # chosen frame does carry, the header's included.
        at = draw(st.integers(0, len(frames) - 1))
        header, payload = _split(frames[at])
        keys = sorted(key for key in header if key != "_cols")
        header[draw(st.sampled_from(keys))] = draw(_hostile_scalars)
        frames[at] = _join(header, payload)
        return b"".join(frames)
    eligible = range(len(frames))
    if mutation.startswith(("cols_", "field_")):  # needs a column to aim at
        eligible = [i for i, f in enumerate(frames) if _split(f)[0]["_cols"]]
    at = draw(st.sampled_from(list(eligible)))
    frames[at] = _mutate(draw, frames[at], mutation)
    return b"".join(frames)


class TestLoaderFuzz:
    """16 mutation classes x 2 shapes x 12 examples: 384 hostile files."""

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    @pytest.mark.parametrize("mutation", _MUTATIONS)
    @settings(
        max_examples=12, deadline=5000,  # a load takes milliseconds: no hangs
        suppress_health_check=[
            HealthCheck.too_slow, HealthCheck.data_too_large,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(data=st.data())
    def test_every_load_succeeds_or_ends_in_a_typed_error(
        self, checkpoints, tmp_path, shape, mutation, data
    ):
        blob, valid_peak = checkpoints[shape]
        body = data.draw(_hostile_checkpoints(blob, mutation))
        path = tmp_path / "fuzzed.ckpt"
        path.write_bytes(body)
        _curator, peak = _load_peak(path)  # any other exception fails here
        # The loader sizes nothing from a declared count the file's own
        # bytes do not back.
        assert peak <= 2 * valid_peak + 8 * len(body), (peak, valid_peak)

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_a_file_cut_after_any_frame_is_refused(self, checkpoints, tmp_path, shape):
        frames = _frames(checkpoints[shape][0])
        path = tmp_path / "cut.ckpt"
        for n in range(1, len(frames)):
            path.write_bytes(b"".join(frames[:n]))
            with pytest.raises(DatasetError):
                load_checkpoint(path)


#: What unpickling an armed file would run appends here.
_UNPICKLED: list = []


def _arm() -> None:
    _UNPICKLED.append("ran")


class _Armed:
    def __reduce__(self):
        return (_arm, ())


def test_a_pickle_file_is_refused_unread(tmp_path):
    path = tmp_path / "armed.ckpt"
    path.write_bytes(pickle.dumps({"version": 4, "state": _Armed()}))
    for load in (load_checkpoint, peek_checkpoint_spec, load_session):
        with pytest.raises(DatasetError, match=r"\(format <= 4\) are no longer read"):
            load(path)
    assert _UNPICKLED == []
    pickle.loads(path.read_bytes())  # the file really is armed
    assert _UNPICKLED == ["ran"]
    _UNPICKLED.clear()
