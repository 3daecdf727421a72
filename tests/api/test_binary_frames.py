"""RSF2 binary frames: lossless round trips, pipelining and rejection.

Every message must decode to arrays bit-identical to what was encoded.
These tests pin that for all ReportBatch dtypes (including empty batches
and max-uid int64 edges), frame concatenation (pipelining), the
malformed-frame rejection paths an ingress must survive, and — by
fuzzing — that hostile bytes at the decoder end in a typed error and
nothing else.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import schema
from repro.api.client import _load_response
from repro.api.schema import SchemaError
from repro.exceptions import ConfigurationError, ReproError
from repro.geo.grid import unit_grid
from repro.stream.reports import KIND_ENTER, KIND_MOVE, KIND_QUIT, ReportBatch
from repro.stream.state_space import TransitionStateSpace

INT64_MAX = np.iinfo(np.int64).max
INT64_MIN = np.iinfo(np.int64).min


def _batch(n=64, seed=0):
    rng = np.random.default_rng(seed)
    return ReportBatch.from_arrays(
        rng.integers(0, 10**9, size=n),
        rng.integers(-1, 500, size=n),
        rng.integers(0, 3, size=n),
    )


def _via_frame(msg: dict) -> dict:
    return _load_response(schema.dump_frame(msg), expect=msg["type"])


def _assert_batch_tuples_identical(a, b):
    t_a, batch_a, ent_a, quit_a, n_a = a
    t_b, batch_b, ent_b, quit_b, n_b = b
    assert t_a == t_b and n_a == n_b
    for col in ("user_ids", "state_idx", "kinds"):
        x, y = getattr(batch_a, col), getattr(batch_b, col)
        assert x.dtype == y.dtype, col
        np.testing.assert_array_equal(x, y)
    for x, y in ((ent_a, ent_b), (quit_a, quit_b)):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)


def _split(blob: bytes) -> tuple[dict, bytes]:
    """A frame's header JSON (with its ``_cols``) and raw payload."""
    header_len = struct.unpack_from("<II", blob, 4)[0]
    return json.loads(blob[12 : 12 + header_len]), blob[12 + header_len :]


def _join(header: dict, payload: bytes) -> bytes:
    raw = json.dumps(header).encode()
    return b"RSF2" + struct.pack("<II", len(raw), len(payload)) + raw + payload


#: One deterministic message per ``*_message`` builder, and the SHA-256
#: of its frame as the encoder wrote it when the digests were pinned.
FRAME_BUILDERS = {
    "hello_message": lambda: schema.hello_message(
        unit_grid(6), include_eq=True, label="RetraSyn_p", lam=14.25
    ),
    "report_batch_message": lambda: schema.report_batch_message(
        7, _batch(n=33, seed=5), newly_entered=[3, 9, 2**40], quitted=[],
        n_real_active=61,
    ),
    "snapshot_message": lambda: schema.snapshot_message(np.arange(-1, 40, 3)),
    "stats_message": lambda: schema.stats_message(
        {"n_timestamps": 12, "ingest": {"late": 0.5}}
    ),
    "result_message": lambda: schema.result_message(
        np.array([0, 2, 5]), np.array([3, 1, 2]), np.array([4, 5, 5, 9, 1, 2]),
        8, "online(walks)", np.array([10, 11, 2**33]),
    ),
    "error_message": lambda: schema.error_message(
        ConfigurationError("epsilon must be > 0")
    ),
}
FRAME_SHA256 = {
    "hello_message":
        "99a8707ae4ead69466954aa516332124bbb0cb890d425d85841b0f7ddeb50c08",
    "report_batch_message":
        "4698c33937c6cb2c4d251cb2556ca788d6611982b8ef2b06442142af5d33443f",
    "snapshot_message":
        "e02609f38b6aa895a4e8d27b5b9c9a9ba75a3563dd43203de81cd95cb3513094",
    "stats_message":
        "88183c43e6f8244c0e4ea695102aa7ec221ecdeff3a0e93506ad8818e0db6b40",
    "result_message":
        "58de7ec02af48b7e99083c682ff456e13e21c080593cad54e13481830a29db2e",
    "error_message":
        "e323d260ecfa265661e782db2cc0ea6a6daf8fdab45f098b2d408266bc24609a",
}


class TestFrameBytesArePinned:
    def test_every_builder_is_pinned(self):
        builders = {name for name in dir(schema) if name.endswith("_message")}
        assert builders == set(FRAME_BUILDERS) == set(FRAME_SHA256)

    @pytest.mark.parametrize("builder", sorted(FRAME_BUILDERS))
    def test_frame_bytes(self, builder):
        msg = FRAME_BUILDERS[builder]()
        frame = schema.dump_frame(msg)
        assert hashlib.sha256(frame).hexdigest() == FRAME_SHA256[builder]
        # The frame is its parts, concatenated.
        parts = schema.dump_frame_parts(msg)
        assert frame == b"".join(bytes(part) for part in parts)


class TestReportBatchDifferential:
    """A frame decodes to the report batch it was built from, bit for bit."""

    def _both(self, t, batch, entered, quitted, n_active):
        sent = (
            t,
            ReportBatch.from_arrays(batch.user_ids, batch.state_idx, batch.kinds),
            np.asarray(entered, dtype=np.int64),
            np.asarray(quitted, dtype=np.int64),
            n_active,
        )
        msg = schema.report_batch_message(t, batch, entered, quitted, n_active)
        return sent, schema.parse_report_batch(_via_frame(msg))

    def test_random_batch(self):
        a, b = self._both(3, _batch(257), [10, 11], [12], 200)
        _assert_batch_tuples_identical(a, b)

    def test_empty_batch(self):
        a, b = self._both(0, ReportBatch.empty(), [], [], 0)
        _assert_batch_tuples_identical(a, b)
        assert len(b[1]) == 0
        assert b[1].user_ids.dtype == np.int64
        assert b[1].kinds.dtype == np.int8

    def test_max_uid_edges(self):
        """int64 extremes survive the frame bit-identically."""
        batch = ReportBatch.from_arrays(
            [0, INT64_MAX, INT64_MAX - 1, INT64_MIN],
            [-1, 0, 499, 1],
            [1, 0, 0, 2],
        )
        a, b = self._both(7, batch, [INT64_MAX], [INT64_MIN], 4)
        _assert_batch_tuples_identical(a, b)
        assert b[1].user_ids[1] == INT64_MAX

    def test_all_kind_codes(self):
        batch = ReportBatch.from_arrays(
            [1, 2, 3], [5, -1, -1], [KIND_MOVE, KIND_ENTER, KIND_QUIT]
        )
        a, b = self._both(1, batch, [2], [3], 3)
        _assert_batch_tuples_identical(a, b)

    def test_seeded_sweep(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(0, 400))
            a, b = self._both(
                int(rng.integers(0, 100)),
                _batch(n, seed=seed),
                rng.integers(0, 10**6, size=int(rng.integers(0, 8))),
                rng.integers(0, 10**6, size=int(rng.integers(0, 8))),
                n,
            )
            _assert_batch_tuples_identical(a, b)

    def test_frame_payload_bytes_are_the_pinned_column_buffers(self):
        """The payload is each column's pinned little-endian buffer, in order."""
        batch = _batch(33, seed=5)
        blob = schema.dump_frame(
            schema.report_batch_message(2, batch, [9], [], 33)
        )
        header_len, payload_len = struct.unpack_from("<II", blob, 4)
        payload = blob[12 + header_len :]
        assert len(payload) == payload_len
        joined = b"".join(
            np.asarray(values, dtype=dtype).astype(
                np.dtype(dtype).newbyteorder("<")
            ).tobytes()
            for values, dtype in (
                (batch.user_ids, np.int64), (batch.state_idx, np.int64),
                (batch.kinds, np.int8), ([9], np.int64), ([], np.int64),
            )
        )
        assert payload == joined


class TestResultAndSnapshotDifferential:
    def test_result_round_trip_identical(self):
        births = np.asarray([0, 2, 5, 9])
        lengths = np.asarray([3, 1, 2, 4])
        flat = np.arange(10) + 100
        uids = np.asarray([7, 0, 3, INT64_MAX])
        args = (births, lengths, flat, 12, "syn", uids)
        b = schema.parse_result(_via_frame(schema.result_message(*args)))
        for x, y in zip(args, b):
            if isinstance(x, np.ndarray):
                assert y.dtype == np.int64
                np.testing.assert_array_equal(x, y)
            else:
                assert x == y

    def test_snapshot_round_trip_identical(self):
        cells = np.asarray([3, 1, 4, 1, 5, INT64_MAX])
        b = schema.parse_snapshot(_via_frame(schema.snapshot_message(cells)))
        assert b.dtype == np.int64
        np.testing.assert_array_equal(cells, b)

    def test_empty_result(self):
        empty = np.empty(0, dtype=np.int64)
        msg = schema.result_message(empty, empty, empty, 5, "e", empty)
        b, le, f, n_t, name, u = schema.parse_result(_via_frame(msg))
        assert b.size == le.size == f.size == u.size == 0
        assert n_t == 5 and name == "e"


class TestPipelining:
    """Frames are length-prefixed, so bodies concatenate."""

    def test_iter_frames_splits_concatenation(self):
        blobs, batches = [], []
        for t in range(5):
            batch = _batch(10 + t, seed=t)
            batches.append(batch)
            blobs.append(schema.dump_frame(schema.report_batch_message(
                t, batch, [], [], len(batch)
            )))
        body = b"".join(blobs)
        msgs = list(schema.iter_frames(body, expect="report-batch"))
        assert len(msgs) == 5
        for t, (msg, batch) in enumerate(zip(msgs, batches)):
            got_t, got, _e, _q, _n = schema.parse_report_batch(msg)
            assert got_t == t
            np.testing.assert_array_equal(got.user_ids, batch.user_ids)

    def test_iter_frames_includes_empty_batches(self):
        body = schema.dump_frame(schema.report_batch_message(
            0, ReportBatch.empty(), [], [], 0
        )) * 3
        assert len(list(schema.iter_frames(body))) == 3

    def test_response_decode_rejects_pipelined_body(self):
        body = schema.dump_frame(schema.snapshot_message([1])) * 2
        with pytest.raises(SchemaError, match="after its frame"):
            _load_response(body, expect="snapshot")


class TestRejectionPaths:
    def test_truncated_prefix(self):
        with pytest.raises(SchemaError, match="truncated"):
            schema.load_frame(b"RSF2\x01")

    def test_bad_magic(self):
        with pytest.raises(SchemaError, match="magic"):
            schema.load_frame(b"XXXX" + b"\x00" * 8)
        with pytest.raises(SchemaError, match="magic"):
            schema.load_frame(b'{"schema":2,"type":"report-batch"}')

    def test_truncated_body(self):
        blob = schema.dump_frame(schema.snapshot_message([1, 2]))
        with pytest.raises(SchemaError, match="truncated"):
            schema.load_frame(blob[:-3])

    def test_payload_overrun_declared_in_manifest(self):
        """A manifest claiming more elements than the payload holds."""
        blob = bytearray(schema.dump_frame(schema.snapshot_message([1, 2])))
        header_len, payload_len = struct.unpack_from("<II", blob, 4)
        header = bytes(blob[12 : 12 + header_len]).replace(
            b'["cells",2]', b'["cells",9]'
        )
        tampered = (
            b"RSF2" + struct.pack("<II", len(header), payload_len)
            + header + bytes(blob[12 + header_len :])
        )
        with pytest.raises(SchemaError, match="overruns"):
            schema.load_frame(tampered)

    def test_payload_underrun(self):
        """Payload bytes beyond the manifest are rejected, not ignored."""
        blob = schema.dump_frame(schema.snapshot_message([1, 2]))
        header_len, payload_len = struct.unpack_from("<II", blob, 4)
        inflated = (
            blob[:4] + struct.pack("<II", header_len, payload_len + 8)
            + blob[12:] + b"\x00" * 8
        )
        with pytest.raises(SchemaError, match="beyond"):
            schema.load_frame(inflated)

    def test_unknown_column_in_manifest(self):
        blob = schema.dump_frame(schema.snapshot_message([1]))
        header_len, payload_len = struct.unpack_from("<II", blob, 4)
        header = bytes(blob[12 : 12 + header_len]).replace(b'"cells"', b'"sells"')
        tampered = (
            b"RSF2" + struct.pack("<II", len(header), payload_len)
            + header + blob[12 + header_len :]
        )
        with pytest.raises(SchemaError, match="unknown wire column"):
            schema.load_frame(tampered)

    @pytest.mark.parametrize("cols", [
        [[["x"], 1]],
        [[None, 0]],
        [[7, 0]],
        [["cells", float("inf")]],
        [["cells", "two"]],
        [["cells"]],
        [["cells", 1, 2]],
        [3],
    ])
    def test_malformed_cols_entry(self, cols):
        header = {"schema": 2, "type": "report-batch", "_cols": cols}
        with pytest.raises(SchemaError, match="malformed _cols entry"):
            schema.load_frame(_join(header, b"\x00" * 8))

    def test_deeply_nested_header(self):
        nested = b"[" * 200_000 + b"]" * 200_000
        frame = b"RSF2" + struct.pack("<II", len(nested), 0) + nested
        with pytest.raises(SchemaError, match="unparseable frame header"):
            schema.load_frame(frame)

    def test_oversized_header_bound(self):
        huge = b"RSF2" + struct.pack("<II", 2 * 1024 * 1024, 0)
        with pytest.raises(SchemaError, match="bound"):
            schema.load_frame(huge + b"\x00" * 16)
        with pytest.raises(SchemaError, match="bound"):
            schema.frame_length(huge)

    def test_dump_frame_rejects_v1(self):
        with pytest.raises(SchemaError, match="no frame encoding"):
            schema.dump_frame({"schema": 1, "type": "ack"})

    def test_decode_array_rejects_wrong_dtype_passthrough(self):
        with pytest.raises(SchemaError, match="dtype"):
            schema.decode_array("kinds", np.asarray([1, 2], dtype=np.int64))

    def test_decode_array_rejects_header_values(self):
        """A column must travel in the payload, not as a header value."""
        with pytest.raises(SchemaError, match="payload"):
            schema.decode_array("user_ids", "AAAAAAAAAAA=")

    def test_frame_validation_still_applies(self):
        """Envelope rules (version/type/expect) hold on the frame path."""
        blob = schema.dump_frame(schema.snapshot_message([1]))
        with pytest.raises(SchemaError, match="expected"):
            schema.load_frame(blob, expect="stats")


# ---------------------------------------------------------------------- #
# fuzzing the one decoder
# ---------------------------------------------------------------------- #
#: The space a default (EQ) server checks decoded batches against.
_SPACE = TransitionStateSpace(unit_grid(6))

_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_col_names = st.one_of(
    st.sampled_from(sorted(schema._COLUMN_DTYPES) + ["x", "_cols"]),
    st.integers(), st.none(), st.lists(st.text(max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
#: Scalars every ``int(...)`` in the decoder must survive.
_hostile_scalars = st.one_of(
    st.sampled_from([float("inf"), float("-inf"), float("nan"), "x", "", None,
                     True, [], {}, [1], 1.5]),
    st.integers(-(2**70), 2**70),
    _json_values,
)
_col_counts = st.one_of(
    _hostile_scalars, st.integers(-10, 64), st.integers(2**62, 2**70),
)


@st.composite
def _valid_frames(draw):
    """A report-batch frame an EQ session would admit."""
    n = draw(st.integers(0, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kinds = rng.integers(0, 3, size=n)
    idx = rng.integers(0, _SPACE.size, size=n)
    batch = ReportBatch.from_arrays(rng.integers(0, 10**9, size=n), idx, kinds)
    entered = draw(st.lists(st.integers(0, 10**6), max_size=3))
    quitted = draw(st.lists(st.integers(0, 10**6), max_size=3))
    t = draw(st.integers(0, 100))
    return schema.dump_frame(
        schema.report_batch_message(t, batch, entered, quitted, n)
    )


#: Mutation classes; each gets its own run of the property, so every
#: class is exercised whatever order hypothesis favours.
_MUTATIONS = (
    "truncate", "flip", "header_len", "payload_len", "trailing",
    "oversized_header", "cols_name", "cols_count", "cols_entry",
    "cols_insert", "cols_manifest", "field_t", "field_n",
    "field_n_real_active", "field_schema", "field_type",
)


@st.composite
def _hostile_bodies(draw, mutation):
    """A valid report-batch frame, then one ``mutation`` of it."""
    return _mutate(draw, draw(_valid_frames()), mutation)


def _mutate(draw, blob: bytes, mutation: str) -> bytes:
    """One ``mutation`` of the valid frame ``blob`` (the ``cols_*`` classes
    need a frame with at least one column)."""
    if mutation == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if mutation == "flip":
        body = bytearray(blob)
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(body) - 1))
            body[at] ^= draw(st.integers(1, 255))
        return bytes(body)
    if mutation in ("header_len", "payload_len"):
        header_len, payload_len = struct.unpack_from("<II", blob, 4)
        value = draw(st.integers(0, 2**32 - 1))
        if mutation == "header_len":
            header_len = value
        else:
            payload_len = value
        return blob[:4] + struct.pack("<II", header_len, payload_len) + blob[12:]
    if mutation == "trailing":
        return blob + draw(st.binary(min_size=1, max_size=32))
    if mutation == "oversized_header":
        over = schema._MAX_FRAME_HEADER + draw(st.integers(1, 2**20))
        return blob[:4] + struct.pack("<II", over, 0) + blob[12:]
    header, payload = _split(blob)
    # The manifest stays valid up to its one hostile entry, so decoding
    # reaches that entry.
    cols = header["_cols"]
    at = draw(st.integers(0, len(cols) - 1))
    if mutation == "cols_name":
        cols[at][0] = draw(_col_names)
    elif mutation == "cols_count":
        cols[at][1] = draw(_col_counts)
    elif mutation == "cols_entry":
        cols[at] = draw(_json_values)
    elif mutation == "cols_insert":
        cols.insert(at, [draw(_col_names), draw(_col_counts)])
    elif mutation == "cols_manifest":
        header["_cols"] = draw(_json_values)
    else:
        header[mutation[len("field_"):]] = draw(_hostile_scalars)
    return _join(header, payload)


def _decode_and_check(body: bytes) -> list:
    """The ingress's decode path for one ``POST /v1/batch`` body."""
    parsed = [
        schema.parse_report_batch(m)
        for m in schema.iter_frames(body, expect="report-batch")
    ]
    for _t, batch, *_cols in parsed:
        batch.check_domain(_SPACE)
    return parsed


class TestDecoderFuzz:
    """16 mutation classes x 60 examples: 960 hostile bodies per run."""

    @pytest.mark.parametrize("mutation", _MUTATIONS)
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(data=st.data())
    def test_hostile_bodies_end_in_a_typed_error(self, mutation, data):
        body = data.draw(_hostile_bodies(mutation))
        try:
            parsed = _decode_and_check(body)
        except ReproError:  # SchemaError is one; DomainError too
            return
        for t, batch, entered, quitted, n_active in parsed:
            assert isinstance(t, int) and isinstance(n_active, int)
            assert batch.user_ids.dtype == np.int64
            assert batch.kinds.dtype == np.int8
            assert entered.dtype == quitted.dtype == np.int64

    @settings(max_examples=50, deadline=None)
    @given(_valid_frames())
    def test_valid_frames_always_decode(self, blob):
        assert len(_decode_and_check(blob)) == 1
