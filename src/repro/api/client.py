"""Remote curator client: the wire twin of an in-process session.

:class:`Client` speaks the versioned schema of :mod:`repro.api.schema`
over the HTTP ingress (:mod:`repro.api.http`), exposing the same verbs a
local :class:`~repro.api.session.CuratorSession` has — ``submit_batch``,
``snapshot``, ``stats``, ``checkpoint``, ``close`` and ``result`` — so
moving a workload across the network is a one-line change::

    client = Client("127.0.0.1", 8731)
    hello = client.hello()                  # server identity + grid geometry
    for t in range(T):
        client.submit_batch(t, view.batch_at(t),
                            newly_entered=view.newly_entered_at(t),
                            quitted=view.quitted_at(t),
                            n_real_active=view.n_active_at(t))
    client.close()
    synthetic = client.result()             # a StreamDataset, bit-identical
                                            # to the in-process run

Only the Python standard library is used (``http.client``).  The client
holds ONE persistent keep-alive connection and reconnects transparently
when the server (or an idle timeout) drops it.  Every request and
response body is RSF2 frames, and :meth:`submit_batches` pipelines
several timestamps into a single request body (the frames concatenate
because each is length-prefixed).
"""

from __future__ import annotations

import http.client
from typing import Optional, Sequence

import numpy as np

from repro.api import schema
from repro.api.schema import SchemaError
from repro.exceptions import ResponseLostError

#: Exceptions that mean "the TCP peer went away mid-exchange".
_DISCONNECTS = (
    http.client.RemoteDisconnected,
    BrokenPipeError,
    ConnectionResetError,
)


#: Default request-body budget for :meth:`Client.submit_batches` (bytes).
#: Chosen well under the server's 256 MiB body bound so a pipelined run
#: never trips it, while still amortising one round-trip over many frames.
DEFAULT_CHUNK_BYTES = 8 * 1024 * 1024


def _load_response(payload: bytes, expect: str) -> dict:
    """The one frame of a response body; trailing bytes are refused.

    An ``error`` frame raises :class:`SchemaError` naming the server-side
    exception, so callers never see an error message object.
    """
    msg, end = schema.load_frame(payload, expect=expect)
    if end != len(payload):
        raise SchemaError(
            f"response holds {len(payload) - end} bytes after its frame"
        )
    return msg


class Client:
    """Synchronous client for one curator session behind an HTTP ingress.

    ``chunk_bytes`` bounds the body of a pipelined :meth:`submit_batches`
    request: frames are packed greedily up to the budget and flushed as
    multiple POSTs when the pipeline exceeds it (a single frame larger
    than the budget still travels alone — the server enforces its own
    body bound).  ``chunk_bytes=0`` disables chunking.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.chunk_bytes = int(chunk_bytes)
        if self.chunk_bytes < 0:
            raise ValueError(
                f"chunk_bytes must be >= 0, got {self.chunk_bytes}"
            )
        self._hello: Optional[dict] = None
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _drop_connection(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover - close never matters
                pass
            self._conn = None

    def _send(self, method: str, path: str, body: bytes) -> bytes:
        """One request over the persistent connection, at most once applied.

        A dead keep-alive socket (server restarted, idle drop) surfaces as
        ``RemoteDisconnected`` / a broken pipe while *writing* the request
        — the server never saw it, so one reconnect-and-retry is always
        safe.  A disconnect after the request was written is ambiguous:
        the server may have applied it and died before answering.  Only
        idempotent ``GET``\\ s are retried past that point; a mutating
        request raises :class:`~repro.exceptions.ResponseLostError`
        instead of being blindly resent (a resent ``POST /v1/batch``
        would double-apply every report in it).
        """
        for attempt in (0, 1):
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            try:
                self._conn.request(
                    method, path, body=body,
                    headers={"Content-Type": schema.CONTENT_TYPE_FRAME},
                )
            except _DISCONNECTS:
                # Failed before (or while) writing: nothing was applied.
                self._drop_connection()
                if attempt:
                    raise
                continue
            except (http.client.HTTPException, ConnectionError, OSError):
                self._drop_connection()
                raise
            try:
                response = self._conn.getresponse()
                payload = response.read()
            except _DISCONNECTS as exc:
                # The request reached the wire but the response was lost.
                self._drop_connection()
                if method == "GET":
                    if attempt:
                        raise
                    continue
                raise ResponseLostError(
                    f"connection lost awaiting the response to "
                    f"{method} {path}; the server may or may not have "
                    f"applied it — reconcile via GET /v1/stats before "
                    f"resending"
                ) from exc
            except (http.client.HTTPException, ConnectionError, OSError):
                self._drop_connection()
                raise
            if response.will_close:
                self._drop_connection()
            return payload
        raise AssertionError("unreachable")  # pragma: no cover

    def _request(self, method: str, path: str, msg: Optional[dict] = None,
                 expect: Optional[str] = None) -> dict:
        body = schema.dump_frame(msg) if msg is not None else b""
        return _load_response(self._send(method, path, body), expect=expect)

    # ------------------------------------------------------------------ #
    # protocol verbs
    # ------------------------------------------------------------------ #
    def hello(self) -> dict:
        """Fetch the server identity and grid geometry."""
        self._hello = self._request("GET", "/v1/hello", expect="hello")
        return self._hello

    def grid(self):
        """The server's discretisation grid (from the hello handshake)."""
        from repro.geo.grid import Grid
        from repro.geo.point import BoundingBox

        info = (self._hello or self.hello())["grid"]
        bx = info["bbox"]
        return Grid(BoundingBox(bx[0], bx[1], bx[2], bx[3]), int(info["k"]))

    def submit_batch(
        self, t: int, batch, newly_entered=(), quitted=(),
        n_real_active: int = 0,
    ) -> dict:
        """Submit one timestamp's candidate reports; returns the ack."""
        msg = schema.report_batch_message(
            t, batch, newly_entered, quitted, n_real_active
        )
        return self._request("POST", "/v1/batch", msg, expect="ack")

    def submit_batches(self, items: Sequence[tuple]) -> dict:
        """Pipeline several timestamps' batches in one request.

        ``items`` holds ``(t, batch, newly_entered, quitted,
        n_real_active)`` tuples in submission order.  The frames
        concatenate into POST bodies of at most ``chunk_bytes`` bytes each
        (so an arbitrarily long pipeline never exceeds the server's
        request-body bound); each body is submitted in order under a
        single session-lock acquisition.  Returns the final ack.
        """
        if not items:
            raise ValueError("submit_batches needs at least one batch")
        budget = self.chunk_bytes
        ack_payload = None
        chunk: list[bytes] = []
        chunk_len = 0
        for t, batch, entered, quitted, n_active in items:
            frame = schema.dump_frame(
                schema.report_batch_message(t, batch, entered, quitted, n_active)
            )
            if chunk and budget and chunk_len + len(frame) > budget:
                ack_payload = self._send(
                    "POST", "/v1/batch", b"".join(chunk)
                )
                chunk, chunk_len = [], 0
            chunk.append(frame)
            chunk_len += len(frame)
        if chunk:
            ack_payload = self._send("POST", "/v1/batch", b"".join(chunk))
        return _load_response(ack_payload, expect="ack")

    def snapshot(self) -> np.ndarray:
        """Current cells of the server's live synthetic streams."""
        msg = self._request("GET", "/v1/snapshot", expect="snapshot")
        return schema.parse_snapshot(msg)

    def stats(self) -> dict:
        """The server session's monitoring counters."""
        return self._request("GET", "/v1/stats", expect="stats")["stats"]

    def checkpoint(self) -> Optional[str]:
        """Ask the server to write its configured checkpoint; returns the path."""
        msg = self._request("POST", "/v1/checkpoint", expect="checkpoint")
        return msg.get("path")

    def close(self) -> None:
        """End of stream: the server flushes and finalises the session."""
        self._request("POST", "/v1/close", expect="ack")

    def result(self, name: Optional[str] = None):
        """Fetch the synthetic database as a :class:`StreamDataset`."""
        from repro.geo.trajectory import CellTrajectory
        from repro.stream.stream import StreamDataset

        msg = self._request("GET", "/v1/result", expect="result")
        births, lengths, flat, n_timestamps, remote_name, user_ids = (
            schema.parse_result(msg)
        )
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        trajectories = [
            CellTrajectory(
                int(births[i]),
                flat[offsets[i]:offsets[i + 1]].tolist(),
                user_id=int(user_ids[i]),
            )
            for i in range(lengths.size)
        ]
        return StreamDataset(
            self.grid(),
            trajectories,
            n_timestamps=n_timestamps,
            name=name or remote_name,
        )

    def shutdown_server(self) -> None:
        """Close the remote session and stop the ingress loop."""
        self._request("POST", "/v1/shutdown", expect="ack")
        self._drop_connection()

    def disconnect(self) -> None:
        """Drop the persistent connection (the session stays alive)."""
        self._drop_connection()
