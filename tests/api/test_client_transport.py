"""The client's own HTTP/1.1 transport: one write per request, one
buffered ``Content-Length`` parse per response.

Most cases drive :meth:`Client._send` over a scripted socket that hands
the response out in chosen chunks, so every split of a response across
``recv`` calls is reachable; the write pin runs against a real TCP peer.
"""

from __future__ import annotations

import http.client
import socket
import threading

import numpy as np
import pytest

from repro.api import schema
from repro.api.client import Client
from repro.api.schema import SchemaError
from repro.exceptions import ResponseLostError
from repro.stream.reports import KIND_MOVE, ReportBatch

_ACK = schema.dump_frame(schema.message("ack", t=0, n=0, n_rounds_processed=0))


def _response(body: bytes = _ACK, *headers: bytes, status: bytes = b"HTTP/1.1 200 OK",
              length: bool = True) -> bytes:
    lines = [status, b"Content-Type: " + schema.CONTENT_TYPE_FRAME.encode()]
    if length:
        lines.append(b"Content-Length: %d" % len(body))
    lines.extend(headers)
    return b"\r\n".join(lines) + b"\r\n\r\n" + body


class _Wire:
    """A connected socket stand-in: records writes, replays ``chunks``.

    Each ``recv_into`` hands out at most the next chunk (less if the
    caller's buffer is smaller); an exhausted script reads as a peer
    close.
    """

    def __init__(self, *chunks: bytes) -> None:
        self.chunks = [bytes(c) for c in chunks if c]
        self.writes: list[bytes] = []
        self.closed = False

    def sendall(self, data) -> None:
        self.writes.append(bytes(data))

    def recv_into(self, view) -> int:
        if not self.chunks:
            return 0
        chunk = self.chunks.pop(0)
        n = min(len(chunk), len(view))
        view[:n] = chunk[:n]
        if n < len(chunk):
            self.chunks.insert(0, chunk[n:])
        return n

    def close(self) -> None:
        self.closed = True


def _client_on(wire: _Wire) -> Client:
    client = Client("127.0.0.1", 1, timeout=5)
    client._sock = wire
    return client


class TestResponseParsing:
    def test_one_byte_chunks(self):
        raw = _response()
        wire = _Wire(*(raw[i:i + 1] for i in range(len(raw))))
        client = _client_on(wire)
        assert client._send("POST", "/v1/batch", b"x") == _ACK
        assert client._sock is wire and not wire.closed

    def test_every_split_offset(self):
        """Cut the response in two at every offset: through the status
        line, the headers, the blank line and the body."""
        raw = _response()
        for cut in range(1, len(raw)):
            wire = _Wire(raw[:cut], raw[cut:])
            client = _client_on(wire)
            assert client._send("GET", "/v1/stats", b"") == _ACK, cut
            assert client._sock is wire, cut

    def test_body_larger_than_the_receive_buffer(self):
        body = bytes(range(256)) * 2048  # 512 KiB
        raw = _response(body)
        wire = _Wire(*(raw[i:i + 65536] for i in range(0, len(raw), 65536)))
        assert _client_on(wire)._send("GET", "/v1/result", b"") == body

    def test_keep_alive_reuses_the_socket(self):
        wire = _Wire(_response(), _response(b"second"))
        client = _client_on(wire)
        assert client._send("GET", "/v1/stats", b"") == _ACK
        assert client._send("GET", "/v1/stats", b"") == b"second"
        assert client._sock is wire and len(wire.writes) == 2

    def test_empty_body(self):
        assert _client_on(_Wire(_response(b"")))._send("GET", "/x", b"") == b""

    @pytest.mark.parametrize("raw", [
        _response(_ACK, b"Connection: close"),
        _response(_ACK, b"Connection: keep-alive, Close"),
        _response(_ACK, status=b"HTTP/1.0 200 OK"),
    ], ids=["connection-close", "close-token", "http-1.0"])
    def test_close_drops_the_socket(self, raw):
        wire = _Wire(raw)
        client = _client_on(wire)
        assert client._send("GET", "/v1/stats", b"") == _ACK
        assert client._sock is None and wire.closed

    def test_bytes_past_the_body_drop_the_socket(self):
        """Unasked-for bytes must not be read as the next response."""
        wire = _Wire(_response() + b"HTTP/1.1 200 OK\r\n")
        client = _client_on(wire)
        assert client._send("GET", "/v1/stats", b"") == _ACK
        assert client._sock is None and wire.closed


class TestResponseRefusals:
    @pytest.mark.parametrize("raw, match", [
        (_response(length=False), "no Content-Length"),
        (_response(_ACK, b"Content-Length: %d" % len(_ACK)), "repeats"),
        (_response(_ACK, b"Content-Length: 0"), "repeats"),
        (_response(_ACK, b"Transfer-Encoding: chunked"), "Transfer-Encoding"),
        (_response(b"abc", b"Content-Length: +3", length=False), "1\\*DIGIT"),
        (_response(b"abc", b"Content-Length: 1_0", length=False), "1\\*DIGIT"),
        (_response(b"", b"Content-Length: " + b"9" * 5000, length=False), "1\\*DIGIT"),
        (_response(_ACK, b"X-Pad: " + b"a" * (64 * 1024)), "exceeds 65536"),
    ], ids=["missing", "repeated-same", "repeated-different", "chunked",
            "plus-sign", "underscore", "overlong", "oversize-head"])
    def test_framing_is_refused(self, raw, match):
        wire = _Wire(raw)
        client = _client_on(wire)
        with pytest.raises(http.client.HTTPException, match=match):
            client._send("GET", "/v1/stats", b"")
        assert client._sock is None and wire.closed

    def test_head_without_end_over_the_bound(self):
        wire = _Wire(b"HTTP/1.1 200 OK\r\n" + b"X: y\r\n" * 20000)
        with pytest.raises(http.client.HTTPException, match="exceeds"):
            _client_on(wire)._send("GET", "/v1/stats", b"")

    def test_malformed_status_line(self):
        with pytest.raises(http.client.BadStatusLine):
            _client_on(_Wire(_response(status=b"SPDY/3 OK")))._send(
                "GET", "/v1/stats", b""
            )

    def test_error_frame_raises_schema_error(self):
        error = schema.dump_frame(
            schema.error_message(ValueError("no such round"))
        )
        wire = _Wire(_response(error, b"Connection: close",
                               status=b"HTTP/1.1 400 Bad Request"))
        client = _client_on(wire)
        with pytest.raises(SchemaError, match="ValueError: no such round"):
            client.stats()
        assert client._sock is None

    def test_truncated_body_loses_a_post(self):
        wire = _Wire(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nabc")
        client = _client_on(wire)
        with pytest.raises(ResponseLostError) as info:
            client._send("POST", "/v1/batch", b"reports")
        assert isinstance(info.value.__cause__, http.client.IncompleteRead)
        assert len(wire.writes) == 1 and client._sock is None


class _KeepAliveServer:
    """A raw TCP peer answering every request on one connection with an ack."""

    def __init__(self, n_requests: int) -> None:
        self.requests: list[bytes] = []
        self._n = n_requests
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        with self._sock:
            conn, _ = self._sock.accept()
        with conn:
            conn.settimeout(10)
            data = b""
            while len(self.requests) < self._n:
                while b"\r\n\r\n" not in data:
                    data += conn.recv(65536)
                head, _, data = data.partition(b"\r\n\r\n")
                length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
                while len(data) < length:
                    data += conn.recv(65536)
                self.requests.append(head + b"\r\n\r\n" + data[:length])
                data = data[length:]
                conn.sendall(_response())

    def join(self) -> None:
        self._thread.join(10)
        assert not self._thread.is_alive()


class TestOneWritePerRequest:
    def test_submit_batch_is_one_socket_write(self, monkeypatch):
        """Head and body leave together: one write call per request."""
        server = _KeepAliveServer(n_requests=3)
        client = Client("127.0.0.1", server.port, timeout=10)
        writes: list[str] = []

        def counting(name):
            real = getattr(socket.socket, name)

            def write(self, *args, **kwargs):
                if self is client._sock:
                    writes.append(name)
                return real(self, *args, **kwargs)

            return write

        for name in ("send", "sendall", "sendmsg"):
            monkeypatch.setattr(socket.socket, name, counting(name))
        batch = ReportBatch(
            user_ids=np.arange(5, dtype=np.int64),
            state_idx=np.arange(5, dtype=np.int64),
            kinds=np.full(5, KIND_MOVE, dtype=np.int8),
        )
        try:
            for t in range(3):
                client.submit_batch(t, batch, n_real_active=5)
        finally:
            client.disconnect()
        server.join()
        assert writes == ["sendall"] * 3
        assert len(server.requests) == 3
        assert all(b"Content-Length: " in r for r in server.requests)
