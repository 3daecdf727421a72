"""Request/response wire schema of the curator API: RSF2 binary frames.

Every message a session exchanges with a remote peer — over the HTTP
ingress and over the shard sockets alike — is exactly one length-prefixed
frame::

    b"RSF2" | u32 header_len | u32 payload_len | header JSON | payload

The header is a JSON envelope ``{"schema": 2, "type": "<message type>",
...}`` holding every scalar field plus a ``_cols`` manifest of
``[name, element_count]`` pairs in payload order.  The payload is the
concatenation of each array column's raw little-endian buffer, dtype
pinned by :data:`_COLUMN_DTYPES` (int64 ids/indices, int8 kind codes) —
no pickling, no object graphs, so the format is language-agnostic and
safe to parse from untrusted peers.  Columns decode as zero-copy views
over the received bytes.

Message types:

==================  ====================================================
``hello``           Server identity: grid geometry, state-space flags,
                    session label, λ.
``report-batch``    One timestamp's candidate reports plus the derived
                    enter/quit/active columns (client → server).
``ack``             Submission acknowledged; carries the rounds processed
                    so far.
``snapshot``        Live synthetic stream cells (server → client).
``stats``           The session's monitoring counters.
``checkpoint``      Request / confirm a curator checkpoint; also a
                    checkpoint file's header frame (version, grid, λ, spec).
``state``           One component's ``state()`` in a checkpoint file or a
                    ``shard-checkpoint`` exchange (:data:`STATE_COLUMNS`).
``result``          The finished synthetic stream database, columnar:
                    births, lengths and the flattened cell buffer.
``error``           Failure envelope: error class name + message.
==================  ====================================================

The ``shard-*`` types (submit / advance / merge / checkpoint / stats /
exit) are the shard-RPC vocabulary of the distributed collection plane
(:mod:`repro.core.distributed`), exchanged between the coordinator and
its per-shard worker processes over local sockets.

Because every frame carries its own length, frames *concatenate*: one
request body may pipeline several ``report-batch`` frames back-to-back
(:func:`iter_frames` splits them), which is what the client's request
pipelining rides on.  Unknown schema versions, types or columns raise
:class:`SchemaError`.
"""

from __future__ import annotations

import json
import struct
from typing import Iterator, Optional

import numpy as np

from repro.exceptions import DatasetError, ReproError
from repro.stream.reports import ReportBatch

#: The schema version every message carries in its ``schema`` field.
SCHEMA_VERSION = 2

#: Magic prefix of a binary frame (RetraSyn Frame, format 2).
FRAME_MAGIC = b"RSF2"
#: HTTP content type of a frame body.
CONTENT_TYPE_FRAME = "application/x-retrasyn-frame"

_FRAME_LEN = struct.Struct("<II")
#: Bytes of a frame's length prefix: magic, header length, payload length.
FRAME_PREFIX_LEN = len(FRAME_MAGIC) + _FRAME_LEN.size
#: Bound on one frame's header, mirroring the ingress header bound.
_MAX_FRAME_HEADER = 1024 * 1024

#: The message vocabulary.
MESSAGE_TYPES = (
    "hello",
    "report-batch",
    "ack",
    "snapshot",
    "stats",
    "checkpoint",
    "result",
    "error",
    "state",
    # Shard-RPC types: the coordinator <-> shard-worker protocol of the
    # distributed collection plane.  Same framing, same column dtypes — a
    # shard worker is just another peer on the wire.
    "shard-round",
    "shard-merge",
    "shard-checkpoint",
    "shard-stats",
    "shard-exit",
)

#: Wire dtypes by column name; everything else is rejected.
_COLUMN_DTYPES = {
    "user_ids": np.int64,
    "state_idx": np.int64,
    "kinds": np.int8,
    "newly_entered": np.int64,
    "quitted": np.int64,
    "cells": np.int64,
    "births": np.int64,
    "lengths": np.int64,
    "flat_cells": np.int64,
    "rows": np.int64,
    # Shard-RPC column: raw per-position one-counts.
    "ones": np.float64,
}

#: Dtype marker: the trajectory store's cell dtype, which the grid decides;
#: a frame names it in ``cell_dtype`` (one of :data:`CELL_DTYPES`).
CELLS = None
CELL_DTYPES = ("int8", "int16", "int32")

#: Array dtypes of each component kind's ``state()`` (arrays trimmed to their
#: used length, plus JSON scalars), which ``load_state`` reads back into an
#: instance its constructor built; slot tables name hung columns by owner.
STATE_COLUMNS = {
    "engine": {"reporters": np.int64, "significant": np.int64},
    "context": {"freqs": np.float64, "ratios": np.float64},
    "budget": {"window": np.float64},
    "model": {"frequencies": np.float64},
    "synthesizer": {"live": np.int64, "finished": np.int64},
    # The round log as stored, then the live cells, lengths and open round.
    "store": {
        "cells": CELLS, "removed": np.int32, "round_births": np.int64,
        "cur": CELLS, "length": np.int64, "skip": np.int64, "ghost_cells": CELLS,
    },
    "slots": {
        "uids": np.int64, "ring": np.float64, "total": np.float64,
        "status": np.int8, "last_report": np.int64, "idle_since": np.int64,
    },
    # Per-user ledger: column stamps + audit archive (its ring is the
    # slot table's); schedule ledger: its own w-long ring + column stamps.
    "ledger": {
        "col_t": np.int64, "arch_uid": np.int64, "arch_total": np.float64,
        "ring": np.float64,
    },
    "shard": {"phase_uids": np.int64, "phases": np.int64},
    "tracker": {"hist_uid": np.int64, "hist_t": np.int64},
}


def _column_dtypes(msg: dict) -> dict:
    """The table pinning ``msg``'s columns: the wire's or, for a ``state``
    frame, its kind's :data:`STATE_COLUMNS` row, cells in ``cell_dtype``."""
    if msg.get("type") != "state":
        return _COLUMN_DTYPES
    kind, cells = msg.get("component"), msg.get("cell_dtype")
    if not isinstance(kind, str) or kind not in STATE_COLUMNS:
        raise SchemaError(f"unknown state component {kind!r}")
    cells = cells if isinstance(cells, str) and cells in CELL_DTYPES else None
    row = STATE_COLUMNS[kind].items()
    return {k: cells if d is CELLS else d for k, d in row if d is not CELLS or cells}


class SchemaError(ReproError):
    """A wire message violated the schema (bad version, type or payload)."""


# ---------------------------------------------------------------------- #
# columns and envelopes
# ---------------------------------------------------------------------- #
def decode_array(name: str, data) -> np.ndarray:
    """A received column, checked against its pinned dtype.

    :func:`load_frame` maps every column to a typed view over the frame
    payload, which passes through unchanged (zero-copy); a value that did
    not travel in the payload is refused.
    """
    dtype = _COLUMN_DTYPES.get(name)
    if dtype is None:
        raise SchemaError(f"unknown wire column {name!r}")
    if not isinstance(data, np.ndarray):
        raise SchemaError(f"column {name!r} is not a payload column")
    if data.dtype != np.dtype(dtype):
        raise SchemaError(
            f"column {name!r}: expected dtype {np.dtype(dtype).name}, "
            f"got {data.dtype.name}"
        )
    return np.atleast_1d(data)


def _enc(name: str, values) -> np.ndarray:
    """One column as an array of its pinned dtype.

    :func:`dump_frame` later moves its little-endian bytes into the frame
    payload verbatim.
    """
    return np.atleast_1d(np.asarray(values, dtype=_COLUMN_DTYPES[name]))


def message(type_: str, **payload) -> dict:
    """A schema-stamped message envelope."""
    if type_ not in MESSAGE_TYPES:
        raise SchemaError(f"unknown message type {type_!r}")
    return {"schema": SCHEMA_VERSION, "type": type_, **payload}


def _validate(msg: dict, expect: Optional[str]) -> dict:
    """Envelope validation of every decoded frame."""
    version = msg.get("schema")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {version!r}")
    type_ = msg.get("type")
    if type_ not in MESSAGE_TYPES:
        raise SchemaError(f"unknown message type {type_!r}")
    if expect is not None and type_ != expect:
        if type_ == "error":
            raise SchemaError(
                f"peer reported {msg.get('error', 'error')}: "
                f"{msg.get('detail', '')}"
            )
        raise SchemaError(f"expected a {expect!r} message, got {type_!r}")
    return msg


# ---------------------------------------------------------------------- #
# binary frames
# ---------------------------------------------------------------------- #
def dump_frame_parts(msg: dict) -> list:
    """Serialize an envelope as a list of frame segments.

    The segments, concatenated, are exactly :func:`dump_frame`'s output,
    but array columns stay as their own buffer-protocol entries so a
    vectored send (``socket.sendmsg``) can ship the frame without first
    copying every column into one contiguous bytes object.
    """
    version = msg.get("schema")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"schema version {version!r} has no frame encoding")
    header: dict = {}
    cols: list[list] = []
    buffers: list = []
    payload_len = 0
    dtypes = _column_dtypes(msg)
    for key, value in msg.items():
        if isinstance(value, np.ndarray):
            dtype = dtypes.get(key)
            if dtype is None:
                raise SchemaError(f"unknown wire column {key!r}")
            arr = np.ascontiguousarray(value.astype(dtype, copy=False))
            if arr.dtype.byteorder == ">":  # pragma: no cover - BE hosts
                arr = arr.astype(arr.dtype.newbyteorder("<"))
            cols.append([key, int(arr.size)])
            buffers.append(arr.data)
            payload_len += arr.nbytes
        else:
            header[key] = value
    header["_cols"] = cols
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    prefix = b"".join(
        (FRAME_MAGIC, _FRAME_LEN.pack(len(header_bytes), payload_len),
         header_bytes)
    )
    return [prefix, *buffers]


def dump_frame(msg: dict) -> bytes:
    """Serialize an envelope to one length-prefixed binary frame.

    Array-valued entries (what the ``*_message`` builders produce for
    columns) move into the payload as raw little-endian buffers;
    everything else stays in the JSON header, alongside a ``_cols``
    manifest of ``[name, element_count]`` pairs in payload order.
    """
    # join() reads each column's buffer in place: one copy per column.
    return b"".join(dump_frame_parts(msg))


def frame_length(prefix) -> int:
    """Bytes that follow a frame's length prefix (header + payload).

    Checks the magic and the header bound first, so no reader — this
    module's :func:`load_frame` or a socket reading frame by frame —
    trusts a declared length before both hold.
    """
    view = memoryview(prefix)
    magic = bytes(view[: len(FRAME_MAGIC)])
    if magic != FRAME_MAGIC[: len(magic)]:
        raise SchemaError(f"not a binary frame (bad magic {magic!r})")
    if len(view) < FRAME_PREFIX_LEN:
        raise SchemaError("truncated frame: missing length prefix")
    header_len, payload_len = _FRAME_LEN.unpack(
        view[len(FRAME_MAGIC) : FRAME_PREFIX_LEN]
    )
    if header_len > _MAX_FRAME_HEADER:
        raise SchemaError(
            f"frame header of {header_len} bytes exceeds the "
            f"{_MAX_FRAME_HEADER}-byte bound"
        )
    return header_len + payload_len


def load_frame(
    data, offset: int = 0, expect: Optional[str] = None
) -> tuple[dict, int]:
    """Parse one frame starting at ``offset``; return ``(msg, next_offset)``.

    Columns come back as numpy array *views* over ``data`` (zero-copy,
    read-only); :func:`decode_array` passes them through, so the ``parse_*``
    helpers work on them directly.  ``next_offset`` points at the byte
    after the frame, which is how :func:`iter_frames` walks a pipelined
    body.
    """
    view = memoryview(data)[offset:]
    end = FRAME_PREFIX_LEN + frame_length(view)
    if len(view) < end:
        raise SchemaError(
            f"truncated frame: declares {end} bytes, body holds {len(view)}"
        )
    header_len = _FRAME_LEN.unpack_from(view, len(FRAME_MAGIC))[0]
    payload_start = FRAME_PREFIX_LEN + header_len
    try:
        msg = json.loads(bytes(view[FRAME_PREFIX_LEN:payload_start]))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"unparseable frame header: {exc}") from exc
    if not isinstance(msg, dict):
        raise SchemaError("frame header must be a JSON object")
    cols = msg.pop("_cols", [])
    if not isinstance(cols, list):
        raise SchemaError("frame _cols manifest must be a list")
    dtypes = _column_dtypes(msg)
    payload = view[payload_start:end]
    pos = 0
    for entry in cols:
        try:
            name, count = entry
            count = int(count)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"malformed _cols entry {entry!r}") from exc
        if not isinstance(name, str):
            raise SchemaError(f"malformed _cols entry {entry!r}")
        dtype = dtypes.get(name)
        if dtype is None:
            raise SchemaError(f"unknown wire column {name!r}")
        nbytes = count * np.dtype(dtype).itemsize
        if count < 0 or pos + nbytes > len(payload):
            raise SchemaError(
                f"column {name!r} overruns the frame payload"
            )
        msg[name] = np.frombuffer(
            payload[pos : pos + nbytes], dtype=np.dtype(dtype).newbyteorder("<")
        )
        pos += nbytes
    if pos != len(payload):
        raise SchemaError(
            f"frame payload holds {len(payload) - pos} bytes beyond its "
            "column manifest"
        )
    return _validate(msg, expect), offset + end


def iter_frames(data, expect: Optional[str] = None) -> Iterator[dict]:
    """All frames in a concatenated (pipelined) body, in order."""
    view = memoryview(data)
    offset = 0
    while offset < len(view):
        msg, offset = load_frame(view, offset, expect=expect)
        yield msg


# ---------------------------------------------------------------------- #
# message builders / parsers
# ---------------------------------------------------------------------- #
def hello_message(grid, include_eq: bool, label: str, lam: float) -> dict:
    """Server identity: enough for a client to encode reports correctly."""
    bbox = grid.bbox
    return message(
        "hello",
        grid={
            "k": int(grid.k),
            "bbox": [
                float(bbox.min_x), float(bbox.min_y),
                float(bbox.max_x), float(bbox.max_y),
            ],
        },
        include_eq=bool(include_eq),
        label=str(label),
        lam=float(lam),
    )


def report_batch_message(
    t: int,
    batch: ReportBatch,
    newly_entered,
    quitted,
    n_real_active: int,
) -> dict:
    """One timestamp's candidate reports, columnar."""
    return message(
        "report-batch",
        t=int(t),
        n=len(batch),
        user_ids=_enc("user_ids", batch.user_ids),
        state_idx=_enc("state_idx", batch.state_idx),
        kinds=_enc("kinds", batch.kinds),
        newly_entered=_enc("newly_entered", newly_entered),
        quitted=_enc("quitted", quitted),
        n_real_active=int(n_real_active),
    )


def parse_report_batch(msg: dict) -> tuple[int, ReportBatch, np.ndarray, np.ndarray, int]:
    """Inverse of :func:`report_batch_message`."""
    try:
        t = int(msg["t"])
        batch = ReportBatch(
            decode_array("user_ids", msg["user_ids"]),
            decode_array("state_idx", msg["state_idx"]),
            decode_array("kinds", msg["kinds"]),
        )
        entered = decode_array("newly_entered", msg["newly_entered"])
        quitted = decode_array("quitted", msg["quitted"])
        n_active = int(msg["n_real_active"])
        n = int(msg.get("n", len(batch)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed report-batch message: {exc}") from exc
    if len(batch) != n:
        raise SchemaError(
            f"report-batch length {len(batch)} disagrees with n={n}"
        )
    return t, batch, entered, quitted, n_active


def snapshot_message(cells: np.ndarray) -> dict:
    """Live synthetic stream cells."""
    return message(
        "snapshot", n=int(np.asarray(cells).size), cells=_enc("cells", cells)
    )


def parse_snapshot(msg: dict) -> np.ndarray:
    return decode_array("cells", msg["cells"])


def stats_message(stats: dict) -> dict:
    return message("stats", stats=stats)


def result_message(
    births: np.ndarray,
    lengths: np.ndarray,
    flat_cells: np.ndarray,
    n_timestamps: int,
    name: str,
    user_ids: np.ndarray,
) -> dict:
    """The finished synthetic stream database, columnar.

    ``flat_cells`` is the concatenation of every stream's cells in
    sequence order; ``lengths`` recovers the per-stream slices — the same
    layout the dataset npz format and the trajectory store use.
    ``user_ids`` carries the streams' ids so a remote reconstruction and
    the server-side dataset agree on ``trajectory(uid)`` lookups.
    """
    return message(
        "result",
        n_streams=int(np.asarray(lengths).size),
        n_timestamps=int(n_timestamps),
        name=str(name),
        births=_enc("births", births),
        lengths=_enc("lengths", lengths),
        flat_cells=_enc("flat_cells", flat_cells),
        user_ids=_enc("user_ids", user_ids),
    )


def parse_result(
    msg: dict,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, str, np.ndarray]:
    try:
        births = decode_array("births", msg["births"])
        lengths = decode_array("lengths", msg["lengths"])
        flat_cells = decode_array("flat_cells", msg["flat_cells"])
        user_ids = decode_array("user_ids", msg["user_ids"])
        n_timestamps = int(msg["n_timestamps"])
        name = str(msg.get("name", "remote"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed result message: {exc}") from exc
    if births.size != lengths.size or births.size != user_ids.size:
        raise SchemaError(
            "result births/lengths/user_ids columns disagree on length"
        )
    if int(lengths.sum()) != flat_cells.size:
        raise SchemaError("result flat_cells length disagrees with lengths")
    return births, lengths, flat_cells, n_timestamps, name, user_ids


def load_states(components, msgs) -> None:
    """Fill each ``(kind, component)`` from its ``state`` frame, in order;
    any missing, mistyped or inconsistent value is a ``DatasetError``."""
    kinds = [kind for kind, _ in components]
    found = [msg.get("component") for msg in msgs]
    if found != kinds:
        raise DatasetError(f"state frames {found} do not match components {kinds}")
    for (kind, component), msg in zip(components, msgs):
        try:
            component.load_state(msg)
        except (
            ValueError, TypeError, IndexError, KeyError, AttributeError, OverflowError
        ) as exc:
            raise DatasetError(f"bad {kind} state: {exc!r}") from exc


def error_message(exc: BaseException) -> dict:
    """Failure envelope (class name + message, never a traceback)."""
    return message("error", error=type(exc).__name__, detail=str(exc))
