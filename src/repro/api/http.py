"""Asyncio HTTP ingress: a :class:`CuratorSession` served over the wire.

``repro serve --http PORT`` binds this server in front of a session
created by :func:`~repro.api.session.create_session`; remote clients
(:class:`~repro.api.client.Client`) then drive the same
``submit_batch / advance / snapshot / result`` protocol that in-process
callers use, speaking the RSF2 frames of :mod:`repro.api.schema`.
Because frames round-trip report batches losslessly and the server
processes them in submission order, a remote replay produces
*bit-identical* synthetic streams to an in-process session with the same
spec and seed (pinned by ``tests/api/test_http_ingress.py``).

The server is deliberately dependency-free: a small HTTP/1.1 handler on
``asyncio.start_server`` (persistent connections, bounded header and
body sizes), because the container ships no web framework and the
protocol needs only these routes:

==========================  ==========================================
``GET  /v1/hello``          Server identity + grid geometry.
``POST /v1/batch``          Submit one timestamp's reports; advances.
``GET  /v1/snapshot``       Live synthetic cells.
``GET  /v1/stats``          Monitoring counters.
``POST /v1/checkpoint``     Write the configured checkpoint.
``POST /v1/close``          End of stream: flush + final checkpoint.
``GET  /v1/result``         The synthetic database, columnar.
``POST /v1/shutdown``       Close the session and stop the server.
``GET  /metrics``           Prometheus text-format metrics scrape.
``GET  /healthz``           Liveness probe (200 while the loop runs).
``GET  /readyz``            Readiness probe (503 once draining).
==========================  ==========================================

Session calls are serialized behind an :class:`asyncio.Lock`, so
concurrent clients cannot interleave a curator round.

Graceful drain: when signal handling is enabled (the ``repro serve
--http`` path), SIGTERM/SIGINT flips the server into draining mode —
``/readyz`` answers 503, new ``/v1/batch`` submissions are refused with
503, the in-flight round finishes under the session lock, the session
closes (assembler flush + final checkpoint) and the server stops — all
bounded by the spec's ``drain_deadline`` seconds.

Every ``/v1/*`` request and response body is RSF2 frames, errors
included; only ``/metrics``, ``/healthz`` and ``/readyz`` answer plain
text.  Connections are **keep-alive** by default (HTTP/1.1 semantics),
so a client replaying a stream reuses one socket for the whole run.
A ``POST /v1/batch`` body may concatenate several ``report-batch``
frames — the client-side pipelining path: every frame is decoded and
checked before any is submitted, then all are submitted in frame order
under one session-lock acquisition and one ``advance()`` sweep, and the
ack reports how many batches landed.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import signal
import threading

import numpy as np

from repro.api import schema
from repro.api.schema import SchemaError
from repro.exceptions import ReproError
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE

#: Bounds on what a peer may send (headers / body, bytes).
_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 256 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _Plain:
    """A pre-encoded (non-schema) response body: probes and /metrics."""

    __slots__ = ("payload", "ctype")

    def __init__(self, payload: bytes, ctype: str = "text/plain; charset=utf-8"):
        self.payload = payload
        self.ctype = ctype


def _on_daemon_thread(fn) -> asyncio.Future:
    """``fn()`` on a new daemon thread, awaitable from the running loop.

    Not the loop's default executor: ``asyncio.run`` and interpreter exit
    both join executor threads, so a call that outlived its deadline
    would still hold the process.  Nothing joins a daemon thread.
    """
    done: concurrent.futures.Future = concurrent.futures.Future()
    done.set_running_or_notify_cancel()  # a timed-out await cannot cancel it

    def run() -> None:
        try:
            done.set_result(fn())
        except BaseException as exc:  # noqa: BLE001 - re-raised in the awaiter
            done.set_exception(exc)

    threading.Thread(target=run, name="session-close", daemon=True).start()
    return asyncio.wrap_future(done)


class HttpIngress:
    """One session behind an HTTP front door.

    Parameters
    ----------
    session:
        Any :class:`~repro.api.session.CuratorSession`.  The ingest
        transport is the natural fit (out-of-order tolerance), but the
        direct one works identically for in-order replays.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port, exposed as
        :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        session,
        host: str = "127.0.0.1",
        port: int = 0,
        handle_signals: bool = False,
    ) -> None:
        self.session = session
        self.host = host
        self.port = int(port)
        self._server: asyncio.AbstractServer | None = None
        self._lock = asyncio.Lock()
        self._shutdown = asyncio.Event()
        self._ready = False
        self._draining = False
        self._drain_task: asyncio.Task | None = None
        #: Set when a drain outlived ``drain_deadline``: the session did
        #: not finish closing, and its last complete checkpoint stands.
        self.drain_expired = False
        self._handle_signals = bool(handle_signals)
        self.drain_deadline = float(session.spec.drain_deadline)
        # Transport counters, mirrored into the session's metrics registry
        # by start(): report-batch messages in, frame responses out, and
        # raw body bytes both ways.
        self.frames_received = 0
        self.frames_sent = 0
        self.bytes_received = 0
        self.bytes_sent = 0
        self._routes = {
            ("GET", "/v1/hello"): self._hello,
            ("POST", "/v1/batch"): self._batch,
            ("GET", "/v1/snapshot"): self._snapshot,
            ("GET", "/v1/stats"): self._stats,
            ("POST", "/v1/checkpoint"): self._checkpoint,
            ("POST", "/v1/close"): self._close,
            ("GET", "/v1/result"): self._result,
            ("POST", "/v1/shutdown"): self._shutdown_route,
            ("GET", "/metrics"): self._metrics,
            ("GET", "/healthz"): self._healthz,
            ("GET", "/readyz"): self._readyz,
        }
        self._paths = frozenset(path for _, path in self._routes)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        # limit bounds readuntil() for the header; the body is read with
        # readexactly(), which the limit does not apply to.
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=_MAX_HEADER_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self._handle_signals:
            self.install_signal_handlers()
        self._register_metrics()
        self._ready = True

    def _register_metrics(self) -> None:
        """Expose the ingress transport counters on the session registry.

        The registry is create-or-get, so re-binding after a restart just
        repoints the callbacks at the live ingress.
        """
        registry = getattr(self.session, "metrics", None)
        if registry is None:
            return
        frames = registry.counter(
            "retrasyn_ingress_frames_total",
            "Report-batch messages received and frame responses sent "
            "by the HTTP ingress.",
            labelnames=("direction",),
        )
        frames.labels("received").set_function(
            lambda: int(self.frames_received)
        )
        frames.labels("sent").set_function(lambda: int(self.frames_sent))
        nbytes = registry.counter(
            "retrasyn_ingress_bytes_total",
            "Request body bytes read and response bytes written by the "
            "HTTP ingress.",
            labelnames=("direction",),
        )
        nbytes.labels("received").set_function(
            lambda: int(self.bytes_received)
        )
        nbytes.labels("sent").set_function(lambda: int(self.bytes_sent))

    def install_signal_handlers(self) -> bool:
        """Route SIGTERM/SIGINT into a graceful drain.

        Only possible on the main thread of a unix event loop; returns
        False (and leaves default dispositions) anywhere else, so tests
        running ingresses on background threads are unaffected.
        """
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, self.begin_drain)
            loop.add_signal_handler(signal.SIGINT, self.begin_drain)
        except (NotImplementedError, RuntimeError, ValueError):
            return False
        return True

    def begin_drain(self) -> None:
        """Start (idempotently) the drain task from a signal handler."""
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = asyncio.get_running_loop().create_task(
                self.drain()
            )

    async def drain(self) -> None:
        """Stop accepting, finish in-flight rounds, flush, checkpoint, stop.

        Bounded by ``drain_deadline`` seconds (0 = no bound); on timeout
        the server still stops, with :attr:`drain_expired` set — a stuck
        close must not outlive the supervisor's own kill timeout.  The
        last complete checkpoint then stands: each one is written to a
        temporary file and renamed into place.
        """
        if self._draining:
            return
        self._draining = True  # /readyz -> 503, new batches refused
        async with self._lock:  # waits for the in-flight round
            # Flush the assembler and write the final checkpoint off the
            # loop, so the deadline can expire while they run.
            closing = _on_daemon_thread(self.session.close)
            try:
                await asyncio.wait_for(
                    asyncio.shield(closing), timeout=self.drain_deadline or None
                )
            except asyncio.TimeoutError:
                self.drain_expired = True
                self._shutdown.set()
                # Hold the lock until the loop ends: no request may read
                # the half-closed session.
                await closing
        self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        """Block until a client posts ``/v1/shutdown``, then stop."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        self._server.close()
        await self._server.wait_closed()

    async def aclose(self) -> None:
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # ------------------------------------------------------------------ #
    # http plumbing
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                keep_alive = False
                try:
                    request = await self._read_request(reader)
                    if request is None:
                        return
                    method, path, body, keep_alive = request
                    self.bytes_received += len(body)
                    status, msg = await self._route(method, path, body)
                except SchemaError as exc:
                    status, msg = 400, schema.error_message(exc)
                except ReproError as exc:
                    status, msg = 400, schema.error_message(exc)
                except Exception as exc:  # noqa: BLE001 - envelope reports it
                    status, msg = 500, schema.error_message(exc)
                # Errors and shutdown close the connection: a peer whose
                # request failed mid-pipeline must not keep streaming into
                # a session whose round state it has lost track of.
                keep_alive = (
                    keep_alive and status < 400 and not self._shutdown.is_set()
                )
                if isinstance(msg, _Plain):
                    payload, ctype = msg.payload, msg.ctype
                else:
                    payload = schema.dump_frame(msg)
                    ctype = schema.CONTENT_TYPE_FRAME
                    self.frames_sent += 1
                self.bytes_sent += len(payload)
                head = (
                    f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    f"Connection: {'keep-alive' if keep_alive else 'close'}"
                    "\r\n\r\n"
                ).encode("ascii")
                writer.write(head + payload)
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionError, OSError):
            pass  # peer went away mid-response; nothing to report to
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    @staticmethod
    async def _read_request(reader):
        try:
            header = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            # Connection closed before a full request arrived (port scans,
            # TCP health checks, keep-alive peers hanging up): not an
            # error, just nothing to answer.
            return None
        except asyncio.LimitOverrunError:
            raise SchemaError("request header too large") from None
        lines = header.decode("latin-1").split("\r\n")
        try:
            method, target, _proto = lines[0].split(" ", 2)
        except ValueError as exc:
            raise SchemaError(f"malformed request line {lines[0]!r}") from exc
        # The body is framed by Content-Length only.  Any framing a proxy
        # in front could read differently (a repeated length, a length
        # int() accepts but 1*DIGIT does not, any Transfer-Encoding) is a
        # 400, and errors close the connection, so no body byte is ever
        # read as the start of the next request.
        length = None
        keep_alive = True  # HTTP/1.1 default
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            value = value.strip()
            if name == "content-length":
                if length is not None:
                    raise SchemaError("request repeats Content-Length")
                if not (value.isascii() and value.isdigit()):
                    raise SchemaError(f"unparseable Content-Length {value!r}")
                # int() refuses strings past 4,300 digits; any length of
                # 20 digits is past the body bound anyway.
                length = int(value) if len(value) < 20 else _MAX_BODY_BYTES + 1
            elif name == "transfer-encoding":
                raise SchemaError(
                    f"Transfer-Encoding {value!r} is not accepted; frame "
                    "the body with Content-Length"
                )
            elif name == "connection":
                keep_alive = value.lower() != "close"
        length = length or 0
        if length > _MAX_BODY_BYTES:
            raise SchemaError(f"request body of {length} bytes exceeds the bound")
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:
            return None  # peer closed mid-body; nothing to answer
        return method.upper(), target, body, keep_alive

    # ------------------------------------------------------------------ #
    # routes
    # ------------------------------------------------------------------ #
    async def _route(self, method: str, target: str, body: bytes):
        path = target.partition("?")[0]
        handler = self._routes.get((method, path))
        if handler is None:
            if path in self._paths:
                return 405, schema.error_message(
                    SchemaError(f"method {method} not allowed for {path}")
                )
            return 404, schema.error_message(SchemaError(f"unknown route {path}"))
        return await handler(body)

    async def _hello(self, body: bytes):
        curator = self.session.curator
        return 200, schema.hello_message(
            curator.grid,
            include_eq=curator.space.include_eq,
            label=curator.config.label,
            lam=curator.lam,
        )

    async def _metrics(self, body: bytes):
        registry = getattr(self.session, "metrics", None)
        if registry is None:
            return 404, schema.error_message(
                SchemaError("this session exposes no metrics registry")
            )
        # Under the lock: callbacks read live engine state (and, for the
        # distributed executor, round-trip to the shard workers), which
        # must not interleave with a curator round.
        async with self._lock:
            text = registry.render()
        return 200, _Plain(text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE)

    async def _healthz(self, body: bytes):
        # Liveness: the event loop answered. True even while draining —
        # a draining server is shutting down cleanly, not wedged.
        return 200, _Plain(b"ok\n")

    async def _readyz(self, body: bytes):
        if self._ready and not self._draining and not self._shutdown.is_set():
            return 200, _Plain(b"ready\n")
        return 503, _Plain(b"draining\n" if self._draining else b"not ready\n")

    async def _batch(self, body: bytes):
        if self._draining:
            return 503, schema.error_message(
                ReproError("server is draining; not accepting new batches")
            )
        # A body may concatenate several frames.  All are decoded first;
        # then, under ONE lock acquisition, submit_batches stages them in
        # frame order (or none, if any batch fails admission) and one
        # advance() sweep runs.  Frame order is what keeps remote replays
        # bit-identical to in-process sessions.
        msgs = list(schema.iter_frames(body, expect="report-batch"))
        if not msgs:
            raise SchemaError("empty batch body")
        self.frames_received += len(msgs)
        parsed = [schema.parse_report_batch(m) for m in msgs]
        async with self._lock:
            self.session.submit_batches(parsed)
            results = self.session.advance()
        return 200, schema.message(
            "ack",
            t=parsed[-1][0],
            n=sum(len(p[1]) for p in parsed),
            n_batches=len(parsed),
            n_rounds_processed=len(results),
        )

    async def _snapshot(self, body: bytes):
        async with self._lock:
            cells = self.session.snapshot()
        return 200, schema.snapshot_message(cells)

    async def _stats(self, body: bytes):
        async with self._lock:
            stats = self.session.stats()
        return 200, schema.stats_message(stats)

    async def _checkpoint(self, body: bytes):
        # Only the server-configured path is writable: remote peers must
        # not choose filesystem locations.
        async with self._lock:
            self.session.checkpoint()
        return 200, schema.message(
            "checkpoint", path=self.session.spec.checkpoint_path
        )

    async def _close(self, body: bytes):
        async with self._lock:
            self.session.close()
        return 200, schema.message("ack", t=-1, n=0, n_rounds_processed=0)

    async def _result(self, body: bytes):
        from repro.core.trajectory_store import StoreTrajectories

        async with self._lock:
            run = self.session.result()
        synthetic = run.synthetic
        trajectories = synthetic.trajectories
        if isinstance(trajectories, StoreTrajectories):
            # Store-backed datasets ship straight from the columnar
            # arrays — no CellTrajectory is materialised for the wire.
            store, rows = trajectories.store, trajectories.rows
            births = store.births_of(rows)
            lengths = store.lengths_of(rows)
            flat = store.flat_cells(rows)
            user_ids = rows
        else:
            births = np.asarray(
                [t.start_time for t in trajectories], dtype=np.int64
            )
            lengths = np.asarray([len(t) for t in trajectories], dtype=np.int64)
            flat = (
                np.concatenate(
                    [np.asarray(t.cells, dtype=np.int64) for t in trajectories]
                )
                if len(trajectories)
                else np.zeros(0, dtype=np.int64)
            )
            user_ids = np.asarray(
                [t.user_id for t in trajectories], dtype=np.int64
            )
        return 200, schema.result_message(
            births, lengths, flat, synthetic.n_timestamps, synthetic.name, user_ids
        )

    async def _shutdown_route(self, body: bytes):
        async with self._lock:
            self.session.close()
        self._shutdown.set()
        return 200, schema.message("ack", t=-1, n=0, n_rounds_processed=0)


def serve_http(
    session,
    host: str = "127.0.0.1",
    port: int = 0,
    on_ready=None,
    handle_signals: bool = True,
):
    """Run an ingress for ``session`` until a client posts ``/v1/shutdown``.

    ``on_ready(ingress)`` fires once the socket is bound — the CLI prints
    the listening address from it, and tests grab the ephemeral port.
    With ``handle_signals`` (the default, effective only on a main-thread
    unix loop) SIGTERM/SIGINT drain gracefully instead of killing the
    process: in-flight rounds finish, the assembler flushes and the final
    checkpoint is written before the server stops.
    Returns the :class:`HttpIngress` (its session holds the final state).
    """

    async def _run() -> HttpIngress:
        ingress = HttpIngress(
            session, host=host, port=port, handle_signals=handle_signals
        )
        await ingress.start()
        if on_ready is not None:
            on_ready(ingress)
        await ingress.serve_until_shutdown()
        return ingress

    return asyncio.run(_run())
