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

The transport is a plain TCP socket (``TCP_NODELAY``) that the client
holds across requests (keep-alive) and reopens transparently when the
server (or an idle timeout) drops it.  Each request — request line,
``Host``, ``Content-Type`` and ``Content-Length`` headers and body — goes
out in one ``sendall``.  Each response is read into one reusable buffer
and framed by ``Content-Length`` alone: a head over 64 KiB, a missing,
repeated or non-digit ``Content-Length`` and any ``Transfer-Encoding``
are refused.  Every request and response body is RSF2 frames, and
:meth:`submit_batches` pipelines several timestamps into a single request
body (the frames concatenate because each is length-prefixed).
"""

from __future__ import annotations

import socket
from http.client import (
    BadStatusLine,
    HTTPException,
    IncompleteRead,
    RemoteDisconnected,
)
from typing import Optional, Sequence

import numpy as np

from repro.api import schema
from repro.api.schema import SchemaError
from repro.exceptions import ResponseLostError

#: Exceptions that mean "the TCP peer went away mid-exchange".  The
#: reader raises ``RemoteDisconnected`` (a ``ConnectionResetError``) when
#: the peer closes before a whole response head arrived.
_DISCONNECTS = (BrokenPipeError, ConnectionResetError)

#: A response that never arrived whole: the peer went away, or closed
#: before the declared ``Content-Length`` was read.
_LOST = (*_DISCONNECTS, IncompleteRead)

#: Bound on a response head (status line + headers), as the server bounds
#: a request head.
_MAX_HEAD_BYTES = 64 * 1024

#: Size of the reusable receive buffer: it holds a whole head and the body
#: of every response but ``result`` and large snapshots, which get a
#: buffer of their own.
_RECV_BUFFER_BYTES = 256 * 1024


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


def _parse_head(head: bytes) -> tuple[int, bool]:
    """``(content_length, close)`` of a response head (no final CRLFCRLF).

    The body is framed by ``Content-Length`` only, so every framing that
    could make client and server disagree on where it ends is refused:
    no ``Content-Length``, a repeated one, one that is not 1*DIGIT, and
    any ``Transfer-Encoding``.  ``close`` is true after ``Connection:
    close`` or an HTTP/1.0 status line.
    """
    lines = head.split(b"\r\n")
    version, _, rest = lines[0].partition(b" ")
    code = rest[:3]
    if not (version.startswith(b"HTTP/") and len(code) == 3 and code.isdigit()):
        raise BadStatusLine(lines[0].decode("latin-1"))
    close = version == b"HTTP/1.0"
    length = None
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        name = name.strip().lower()
        value = value.strip()
        if name == b"content-length":
            if length is not None:
                raise HTTPException("response repeats Content-Length")
            if not value.isdigit() or len(value) >= 20:
                raise HTTPException(
                    f"response Content-Length {value!r} is not 1*DIGIT "
                    "of at most 19 digits"
                )
            length = int(value)
        elif name == b"transfer-encoding":
            raise HTTPException(
                f"response uses Transfer-Encoding {value!r}; only "
                "Content-Length framing is accepted"
            )
        elif name == b"connection":
            close = close or b"close" in (
                token.strip() for token in value.lower().split(b",")
            )
    if length is None:
        raise HTTPException("response has no Content-Length")
    return length, close


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
        self._sock: Optional[socket.socket] = None
        self._buf = bytearray(_RECV_BUFFER_BYTES)

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close never matters
                pass
            self._sock = None

    def _write(self, request: bytes) -> None:
        """Send one whole request, connecting first if no socket is open."""
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        self._sock.sendall(request)

    def _read_response(self) -> tuple[bytes, bool]:
        """``(body, close)`` of the next response on the open socket.

        Reads into the reusable buffer until the head is whole, then until
        ``Content-Length`` body bytes are in; a body that does not fit the
        buffer is read into one of its own.  A peer close before the head
        is whole raises ``RemoteDisconnected``, one before the body is
        whole ``IncompleteRead``.  Bytes past the body (which no request
        asked for) close the connection rather than being read as the
        next response.
        """
        sock, buf = self._sock, self._buf
        view = memoryview(buf)
        n = 0
        while True:
            got = sock.recv_into(view[n:])
            if not got:
                raise RemoteDisconnected(
                    "Remote end closed connection without response"
                )
            head_end = buf.find(b"\r\n\r\n", max(0, n - 3), n + got)
            n += got
            if head_end >= 0 or n >= _MAX_HEAD_BYTES:
                break
        if head_end < 0 or head_end + 4 > _MAX_HEAD_BYTES:
            raise HTTPException(f"response head exceeds {_MAX_HEAD_BYTES} bytes")
        length, close = _parse_head(bytes(view[:head_end]))
        start = head_end + 4
        have = n - start
        if have >= length:
            return bytes(view[start:start + length]), close or have > length
        if start + length <= len(buf):
            target, base = view, start
        else:
            target, base = memoryview(bytearray(length)), 0
            target[:have] = view[start:n]
        while have < length:
            got = sock.recv_into(target[base + have:base + length])
            if not got:
                raise IncompleteRead(bytes(target[base:base + have]), length - have)
            have += got
        return bytes(target[base:base + length]), close

    def _send(self, method: str, path: str, body: bytes) -> bytes:
        """One request over the persistent connection, at most once applied.

        A dead keep-alive socket (server restarted, idle drop) can surface
        as a broken pipe or reset while *writing* the request — the
        server never saw it, so one reconnect-and-resend is always safe.
        A lost response after the request was written (the peer closed
        or reset before the whole head, or before ``Content-Length`` body
        bytes) is ambiguous: the server may have applied it and died
        before answering.  Only idempotent ``GET``\\ s are retried past
        that point; a mutating request raises
        :class:`~repro.exceptions.ResponseLostError` instead of being
        blindly resent (a resent ``POST /v1/batch`` would double-apply
        every report in it).
        """
        request = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
            f"Content-Type: {schema.CONTENT_TYPE_FRAME}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1") + body
        for attempt in (0, 1):
            try:
                self._write(request)
            except _DISCONNECTS:
                # Failed before (or while) writing: nothing was applied.
                self._drop_connection()
                if attempt:
                    raise
                continue
            except OSError:
                self._drop_connection()
                raise
            try:
                payload, close = self._read_response()
            except _LOST as exc:
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
            except (HTTPException, OSError):
                self._drop_connection()
                raise
            if close:
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
