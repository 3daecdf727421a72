"""Wire-schema round trips and rejection paths."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.api import schema
from repro.api.schema import SchemaError
from repro.stream.reports import ReportBatch


def _batch(n=5, seed=0):
    rng = np.random.default_rng(seed)
    return ReportBatch.from_arrays(
        rng.integers(0, 1_000_000, size=n),
        rng.integers(-1, 500, size=n),
        rng.integers(0, 3, size=n),
    )


def _via_frame(msg: dict, expect=None) -> dict:
    return schema.load_frame(schema.dump_frame(msg), expect=expect)[0]


def _frame(header: bytes, payload: bytes = b"") -> bytes:
    """A hand-built frame around a raw header and payload."""
    return b"RSF2" + struct.pack("<II", len(header), len(payload)) + header + payload


class TestArrayCodec:
    def test_round_trip_is_lossless(self):
        values = np.asarray([0, 1, -1, 2**62, -(2**62)], dtype=np.int64)
        msg = _via_frame(schema.message("snapshot", user_ids=values))
        decoded = schema.decode_array("user_ids", msg["user_ids"])
        assert decoded.dtype == np.int64
        np.testing.assert_array_equal(decoded, values)

    def test_kinds_are_int8(self):
        msg = _via_frame(
            schema.message("snapshot", kinds=np.asarray([0, 1, 2]))
        )
        assert schema.decode_array("kinds", msg["kinds"]).dtype == np.int8

    def test_unknown_column(self):
        with pytest.raises(SchemaError):
            schema.dump_frame(schema.message("snapshot", payload=np.ones(1)))
        with pytest.raises(SchemaError):
            schema.decode_array("payload", np.zeros(1, dtype=np.int64))

    def test_misaligned_buffer(self):
        """7 payload bytes are no whole number of int64 elements."""
        header = b'{"schema":2,"type":"snapshot","_cols":[["user_ids",1]]}'
        with pytest.raises(SchemaError, match="overruns"):
            schema.load_frame(_frame(header, b"\x00" * 7))
        header = b'{"schema":2,"type":"snapshot","_cols":[["user_ids",0]]}'
        with pytest.raises(SchemaError, match="beyond"):
            schema.load_frame(_frame(header, b"\x00" * 7))


class TestEnvelopes:
    def test_loads_rejects_bad_version(self):
        for version in (1, 99):
            header = b'{"schema":%d,"type":"ack","_cols":[]}' % version
            with pytest.raises(SchemaError, match="unsupported schema version"):
                schema.load_frame(_frame(header))

    def test_loads_rejects_unknown_type(self):
        header = b'{"schema": 2, "type": "teleport"}'
        with pytest.raises(SchemaError, match="unknown message type"):
            schema.load_frame(_frame(header))

    def test_loads_rejects_non_object(self):
        with pytest.raises(SchemaError):
            schema.load_frame(_frame(b"[1, 2]"))
        with pytest.raises(SchemaError):
            schema.load_frame(_frame(b"\xff\xfe"))

    def test_expect_mismatch(self):
        with pytest.raises(SchemaError, match="expected"):
            _via_frame(schema.message("ack"), expect="stats")

    def test_expect_surfaces_error_messages(self):
        err = schema.error_message(ValueError("boom"))
        with pytest.raises(SchemaError, match="boom"):
            _via_frame(err, expect="stats")

    def test_message_rejects_unknown_type(self):
        with pytest.raises(SchemaError):
            schema.message("telemetry")


class TestReportBatchMessage:
    def test_round_trip(self):
        batch = _batch(7)
        msg = schema.report_batch_message(
            3, batch, [10, 11], [12], n_real_active=6
        )
        parsed = _via_frame(msg, expect="report-batch")
        t, decoded, entered, quitted, n_active = schema.parse_report_batch(parsed)
        assert t == 3 and n_active == 6
        np.testing.assert_array_equal(decoded.user_ids, batch.user_ids)
        np.testing.assert_array_equal(decoded.state_idx, batch.state_idx)
        np.testing.assert_array_equal(decoded.kinds, batch.kinds)
        np.testing.assert_array_equal(entered, [10, 11])
        np.testing.assert_array_equal(quitted, [12])

    def test_empty_batch(self):
        msg = schema.report_batch_message(0, ReportBatch.empty(), [], [], 0)
        _t, decoded, entered, quitted, _n = schema.parse_report_batch(msg)
        assert len(decoded) == 0 and entered.size == 0 and quitted.size == 0

    def test_length_disagreement(self):
        msg = schema.report_batch_message(0, _batch(4), [], [], 4)
        msg["n"] = 5
        with pytest.raises(SchemaError, match="disagrees"):
            schema.parse_report_batch(msg)

    def test_missing_column(self):
        msg = schema.report_batch_message(0, _batch(4), [], [], 4)
        del msg["state_idx"]
        with pytest.raises(SchemaError, match="malformed"):
            schema.parse_report_batch(msg)


class TestResultMessage:
    def test_round_trip(self):
        births = np.asarray([0, 2, 5])
        lengths = np.asarray([3, 1, 2])
        flat = np.asarray([4, 5, 6, 7, 8, 9])
        uids = np.asarray([7, 0, 3])
        msg = schema.result_message(births, lengths, flat, 10, "syn", uids)
        b, le, f, n_t, name, u = schema.parse_result(
            _via_frame(msg, expect="result")
        )
        np.testing.assert_array_equal(b, births)
        np.testing.assert_array_equal(le, lengths)
        np.testing.assert_array_equal(f, flat)
        np.testing.assert_array_equal(u, uids)
        assert n_t == 10 and name == "syn"

    def test_inconsistent_lengths(self):
        msg = schema.result_message([0], [2], [1, 2], 5, "x", [0])
        msg["flat_cells"] = np.asarray([1], dtype=np.int64)
        with pytest.raises(SchemaError, match="disagrees"):
            schema.parse_result(_via_frame(msg))

    def test_inconsistent_user_ids(self):
        msg = schema.result_message([0], [2], [1, 2], 5, "x", [0])
        msg["user_ids"] = np.asarray([0, 1], dtype=np.int64)
        with pytest.raises(SchemaError, match="disagree"):
            schema.parse_result(_via_frame(msg))

    def test_snapshot_round_trip(self):
        cells = np.asarray([3, 1, 4, 1, 5])
        out = schema.parse_snapshot(
            _via_frame(schema.snapshot_message(cells), expect="snapshot")
        )
        np.testing.assert_array_equal(out, cells)
