"""The ingress frames request bodies by ``Content-Length`` only.

Every framing that a peer (or a proxy in front of the ingress) could read
differently — a repeated ``Content-Length``, one that ``int()`` accepts
but 1*DIGIT does not, any ``Transfer-Encoding`` — is refused with a 400
before a body byte is read, and the error closes the connection, so no
body byte is ever parsed as the start of the next request.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.api import schema
from repro.api.client import Client
from repro.api.http import HttpIngress
from repro.api.schema import SchemaError
from repro.api.session import create_session
from repro.api.specs import SessionSpec
from repro.geo.trajectory import average_length
from tests.api.test_http_ingress import _Server


def _read(raw: bytes):
    """``HttpIngress._read_request`` over a reader fed ``raw`` then EOF."""

    async def main():
        reader = asyncio.StreamReader(limit=64 * 1024)
        reader.feed_data(raw)
        reader.feed_eof()
        return await HttpIngress._read_request(reader)

    return asyncio.run(main())


def _post(*headers: bytes, body: bytes = b"") -> bytes:
    return (
        b"POST /v1/batch HTTP/1.1\r\nHost: x\r\n"
        + b"".join(h + b"\r\n" for h in headers)
        + b"\r\n"
        + body
    )


class TestReadRequest:
    def test_content_length_frames_the_body(self):
        method, target, body, keep_alive = _read(
            _post(b"Content-Length: 3", body=b"abcGET /next")
        )
        assert (method, target, body, keep_alive) == (
            "POST", "/v1/batch", b"abc", True
        )

    def test_leading_zeros_are_digits(self):
        assert _read(_post(b"Content-Length: 003", body=b"abc"))[2] == b"abc"

    def test_no_content_length_is_an_empty_body(self):
        assert _read(_post(body=b""))[2] == b""

    def test_connection_close(self):
        assert _read(_post(b"Connection: close"))[3] is False

    @pytest.mark.parametrize("headers, match", [
        ((b"Content-Length: 3", b"Content-Length: 0"), "repeats"),
        ((b"Content-Length: 3", b"Content-Length: 3"), "repeats"),
        ((b"Transfer-Encoding: chunked",), "Transfer-Encoding"),
        ((b"Content-Length: 3", b"Transfer-Encoding: chunked"), "Transfer-Encoding"),
        ((b"Transfer-Encoding: identity",), "Transfer-Encoding"),
        ((b"Content-Length: +3",), "unparseable"),
        ((b"Content-Length: 1_0",), "unparseable"),
        ((b"Content-Length: -1",), "unparseable"),
        ((b"Content-Length: 0x3",), "unparseable"),
        ((b"Content-Length: 3 3",), "unparseable"),
        ((b"Content-Length: \xb2",), "unparseable"),  # latin-1 superscript two
        ((b"Content-Length:",), "unparseable"),
        ((b"Content-Length: " + b"9" * 5000,), "exceeds the bound"),
    ], ids=["repeated-different", "repeated-same", "chunked", "chunked-with-length",
            "te-identity", "plus-sign", "underscore", "negative", "hex", "two-values",
            "non-ascii-digit", "empty", "overlong"])
    def test_desync_shaped_framing_is_refused(self, headers, match):
        with pytest.raises(SchemaError, match=match):
            _read(_post(*headers, body=b"abc"))


def test_live_ingress_answers_400_and_closes(walk_data):
    """Two different lengths: a 400 ``error`` frame, then the server
    closes the connection instead of reading any body after the head.

    The head goes alone so the server holds no unread bytes at close
    (which would turn its FIN into a reset racing the response)."""
    spec = SessionSpec(epsilon=1.0, w=10, seed=21, transport="ingest")
    lam = max(1.0, average_length(walk_data.trajectories))
    server = _Server(create_session(spec, walk_data.grid, lam=lam))
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(_post(b"Content-Length: 3", b"Content-Length: 0"))
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
    finally:
        Client("127.0.0.1", server.port, timeout=10).shutdown_server()
        server.join()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    assert lines[0] == b"HTTP/1.1 400 Bad Request"
    assert b"Connection: close" in lines
    assert b"Content-Length: %d" % len(body) in lines
    msg, end = schema.load_frame(body)
    assert end == len(body)
    assert msg["type"] == "error" and "repeats Content-Length" in msg["detail"]
