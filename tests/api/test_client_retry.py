"""At-most-once client transport semantics.

A keep-alive connection can die at three distinct points and each needs a
different answer:

* before the request was written      → reconnect and resend (safe),
* awaiting the response to a GET      → reconnect and resend (idempotent),
* awaiting the response to a POST     → :class:`ResponseLostError`; the
  server may have applied the mutation, so a blind resend of
  ``POST /v1/batch`` would double-count every report in it.

A response cut short of its ``Content-Length`` is a lost response too.
"""

from __future__ import annotations

import http.client
import socket
import threading

import pytest

from repro.api.client import Client
from repro.exceptions import ResponseLostError

_RESPONSE = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: 4\r\n"
    b"Connection: close\r\n"
    b"\r\n"
    b"pong"
)

#: A response that declares 100 body bytes, sends 3 and closes.
_TRUNCATED = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Length: 100\r\n"
    b"\r\n"
    b"abc"
)

#: Close the connection after reading the request, without replying —
#: the server died mid-response, after it may have applied the request.
_KILL = "kill"


class _ScriptedServer:
    """A raw TCP server that plays one scripted behaviour per connection.

    Each behaviour is either ``_KILL`` (read the full request, say
    nothing, close) or a canned response byte string.  The listening
    socket closes when the script runs out, so a client that (wrongly)
    resends gets an immediate connection refusal instead of a hang.
    """

    def __init__(self, behaviors):
        self.requests: list[bytes] = []
        self._behaviors = list(behaviors)
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        try:
            for behavior in self._behaviors:
                conn, _ = self._sock.accept()
                with conn:
                    request = self._read_request(conn)
                    if request is not None:
                        self.requests.append(request)
                    if behavior is not _KILL:
                        conn.sendall(behavior)
        finally:
            self._sock.close()

    @staticmethod
    def _read_request(conn) -> bytes | None:
        conn.settimeout(10)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(65536)
            if not chunk:
                return data or None
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        while len(body) < length:
            chunk = conn.recv(65536)
            if not chunk:
                break
            body += chunk
        return head + b"\r\n\r\n" + body

    def join(self):
        self._thread.join(10)


class TestLostResponse:
    def test_post_raises_typed_error_and_is_not_resent(self):
        """The at-most-once core: a POST whose response was lost must NOT
        be blindly resent — the server may have already applied it."""
        server = _ScriptedServer([_KILL])
        client = Client("127.0.0.1", server.port, timeout=5)
        with pytest.raises(ResponseLostError, match="POST /v1/batch"):
            client._send("POST", "/v1/batch", b"reports")
        server.join()
        assert len(server.requests) == 1, (
            "the client resent a possibly-applied POST"
        )

    def test_error_names_the_ambiguity(self):
        server = _ScriptedServer([_KILL])
        client = Client("127.0.0.1", server.port, timeout=5)
        with pytest.raises(ResponseLostError, match="may or may not have"):
            client._send("POST", "/v1/close", b"")
        server.join()

    def test_get_is_retried_transparently(self):
        """Idempotent reads reconnect through the same failure."""
        server = _ScriptedServer([_KILL, _RESPONSE])
        client = Client("127.0.0.1", server.port, timeout=5)
        assert client._send("GET", "/v1/stats", b"") == b"pong"
        server.join()
        assert len(server.requests) == 2

    def test_get_gives_up_after_one_retry(self):
        server = _ScriptedServer([_KILL, _KILL])
        client = Client("127.0.0.1", server.port, timeout=5)
        with pytest.raises(http.client.RemoteDisconnected):
            client._send("GET", "/v1/stats", b"")
        server.join()
        assert len(server.requests) == 2


class TestTruncatedResponse:
    """A peer close before ``Content-Length`` body bytes arrived loses the
    response exactly as a close before the status line does."""

    def test_post_raises_typed_error_and_is_not_resent(self):
        server = _ScriptedServer([_TRUNCATED])
        client = Client("127.0.0.1", server.port, timeout=5)
        with pytest.raises(ResponseLostError, match="POST /v1/batch"):
            client._send("POST", "/v1/batch", b"reports")
        server.join()
        assert len(server.requests) == 1

    def test_get_is_retried_transparently(self):
        server = _ScriptedServer([_TRUNCATED, _RESPONSE])
        client = Client("127.0.0.1", server.port, timeout=5)
        assert client._send("GET", "/v1/stats", b"") == b"pong"
        server.join()
        assert len(server.requests) == 2

    def test_get_gives_up_after_one_retry(self):
        server = _ScriptedServer([_TRUNCATED, _TRUNCATED])
        client = Client("127.0.0.1", server.port, timeout=5)
        with pytest.raises(http.client.IncompleteRead):
            client._send("GET", "/v1/stats", b"")
        server.join()
        assert len(server.requests) == 2


class TestFailureBeforeWrite:
    def test_post_that_never_reached_the_wire_is_resent(self, monkeypatch):
        """A send that dies before the request was written is always safe
        to retry — the server cannot have seen it."""
        server = _ScriptedServer([_RESPONSE])
        calls = {"n": 0}
        real_write = Client._write

        def flaky(self, request):
            calls["n"] += 1
            if calls["n"] == 1:
                raise BrokenPipeError("stale keep-alive")
            return real_write(self, request)

        monkeypatch.setattr(Client, "_write", flaky)
        client = Client("127.0.0.1", server.port, timeout=5)
        assert client._send("POST", "/v1/batch", b"reports") == b"pong"
        server.join()
        assert calls["n"] == 2
        assert len(server.requests) == 1  # the wire saw it exactly once

    def test_second_prewrite_failure_propagates(self, monkeypatch):
        monkeypatch.setattr(
            Client,
            "_write",
            lambda self, request: (_ for _ in ()).throw(
                BrokenPipeError("always down")
            ),
        )
        client = Client("127.0.0.1", 1, timeout=5)
        with pytest.raises(BrokenPipeError):
            client._send("POST", "/v1/batch", b"reports")
