"""The HTTP ingress and Client: remote round trips must be bit-identical
to in-process sessions (the acceptance bar of the unified API)."""

from __future__ import annotations

import asyncio
import dataclasses
import http.client
import json
import struct
import threading

import numpy as np
import pytest

from repro.api import schema
from repro.api.client import Client
from repro.api.http import HttpIngress
from repro.api.schema import SchemaError
from repro.api.session import create_session
from repro.api.specs import SessionSpec
from repro.core.retrasyn import RetraSyn, RetraSynConfig
from repro.geo.trajectory import average_length
from repro.stream.reports import KIND_ENTER, ColumnarStreamView, ReportBatch
from repro.stream.state_space import TransitionStateSpace


class _Server:
    """An ingress running on a background thread's event loop."""

    def __init__(self, session):
        self.ingress = HttpIngress(session)
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(10):  # pragma: no cover - diagnostics
            raise RuntimeError("ingress did not come up")

    def _run(self):
        async def main():
            await self.ingress.start()
            self._ready.set()
            await self.ingress.serve_until_shutdown()

        asyncio.run(main())

    @property
    def port(self) -> int:
        return self.ingress.port

    def join(self):
        self._thread.join(10)


@pytest.fixture
def served(walk_data):
    """A live ingress over an ingest session, plus a connected client."""
    spec = SessionSpec(epsilon=1.0, w=10, seed=21, transport="ingest")
    lam = max(1.0, average_length(walk_data.trajectories))
    server = _Server(create_session(spec, walk_data.grid, lam=lam))
    client = Client("127.0.0.1", server.port)
    yield server, client
    try:
        client.shutdown_server()
    except Exception:
        pass
    server.join()


def _replay(client, data, space):
    view = ColumnarStreamView(data, space)
    for t in range(data.n_timestamps):
        client.submit_batch(
            t,
            view.batch_at(t),
            newly_entered=view.newly_entered_at(t),
            quitted=view.quitted_at(t),
            n_real_active=view.n_active_at(t),
        )


def _streams(dataset):
    return [(t.start_time, list(t.cells)) for t in dataset]


def _frame(t, batch) -> bytes:
    return schema.dump_frame(
        schema.report_batch_message(t, batch, [], [], len(batch))
    )


def _frame_with_cols(frame: bytes, cols) -> bytes:
    """``frame`` with its ``_cols`` manifest replaced."""
    header_len = struct.unpack_from("<II", frame, 4)[0]
    header = json.loads(frame[12 : 12 + header_len])
    header["_cols"] = cols
    raw = json.dumps(header).encode()
    payload = frame[12 + header_len :]
    return b"RSF2" + struct.pack("<II", len(raw), len(payload)) + raw + payload


class TestRemoteRoundTrip:
    def test_hello_describes_the_grid(self, served, walk_data):
        _server, client = served
        hello = client.hello()
        assert hello["schema"] == schema.SCHEMA_VERSION == 2
        assert hello["grid"]["k"] == walk_data.grid.k
        assert hello["include_eq"] is True
        assert client.grid().n_cells == walk_data.grid.n_cells

    def test_remote_replay_is_bit_identical_to_in_process(
        self, served, walk_data
    ):
        server, client = served
        hello = client.hello()
        space = TransitionStateSpace(
            client.grid(), include_entering_quitting=hello["include_eq"]
        )
        _replay(client, walk_data, space)
        client.close()
        remote = client.result()

        reference = RetraSyn(
            RetraSynConfig(epsilon=1.0, w=10, seed=21)
        ).run(walk_data)
        assert _streams(remote) == _streams(reference.synthetic)
        assert remote.n_timestamps == reference.synthetic.n_timestamps
        # and the server session agrees with what it shipped — including
        # stream identities, so trajectory(uid) lookups match both sides
        local = server.ingress.session.result(walk_data.n_timestamps)
        assert _streams(remote) == _streams(local.synthetic)
        assert remote.user_ids == local.synthetic.user_ids

    def test_pipelined_replay_is_bit_identical(self, served, walk_data):
        """submit_batches (multi-frame bodies) ≡ one request per batch."""
        server, client = served
        hello = client.hello()
        space = TransitionStateSpace(
            client.grid(), include_entering_quitting=hello["include_eq"]
        )
        view = ColumnarStreamView(walk_data, space)
        items = [
            (
                t,
                view.batch_at(t),
                view.newly_entered_at(t),
                view.quitted_at(t),
                view.n_active_at(t),
            )
            for t in range(walk_data.n_timestamps)
        ]
        for start in range(0, len(items), 4):
            ack = client.submit_batches(items[start : start + 4])
            assert ack["n_batches"] == len(items[start : start + 4])
        client.close()
        remote = client.result()
        reference = RetraSyn(
            RetraSynConfig(epsilon=1.0, w=10, seed=21)
        ).run(walk_data)
        assert _streams(remote) == _streams(reference.synthetic)

    def test_snapshot_and_stats_midstream(self, served, walk_data):
        _server, client = served
        space = TransitionStateSpace(walk_data.grid)
        view = ColumnarStreamView(walk_data, space)
        for t in range(5):
            client.submit_batch(
                t, view.batch_at(t),
                newly_entered=view.newly_entered_at(t),
                quitted=view.quitted_at(t),
                n_real_active=view.n_active_at(t),
            )
        snap = client.snapshot()
        assert isinstance(snap, np.ndarray)
        stats = client.stats()
        assert stats["ingest"]["n_submitted"] > 0
        assert stats["n_timestamps"] >= 4  # lateness 0: t=4 still open


class TestIngressErrors:
    def _raw(self, port, method, path, body=b""):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            assert response.getheader("Content-Type") == schema.CONTENT_TYPE_FRAME
            return response.status, schema.load_frame(response.read())[0]
        finally:
            conn.close()

    def test_unknown_route_is_404(self, served):
        server, _client = served
        status, msg = self._raw(server.port, "GET", "/v1/teleport")
        assert status == 404 and msg["type"] == "error"

    def test_wrong_method_is_405(self, served):
        server, _client = served
        status, msg = self._raw(server.port, "GET", "/v1/batch")
        assert status == 405 and msg["type"] == "error"

    def test_malformed_body_is_400(self, served):
        server, _client = served
        for body in (b"not json", b'{"schema":2,"type":"report-batch"}'):
            status, msg = self._raw(server.port, "POST", "/v1/batch", body)
            assert status == 400 and msg["type"] == "error"
            assert "bad magic" in msg["detail"]

    def test_version_mismatch_is_reported(self, served):
        server, _client = served
        frame = bytearray(_frame(0, ReportBatch.empty()))
        header_len = struct.unpack_from("<II", frame, 4)[0]
        header = bytes(frame[12 : 12 + header_len]).replace(
            b'"schema":2', b'"schema":1'
        )
        body = frame[:12] + header + frame[12 + header_len :]
        status, msg = self._raw(server.port, "POST", "/v1/batch", bytes(body))
        assert status == 400
        assert "unsupported schema version 1" in msg["detail"]

    def test_every_malformed_body_class_is_a_400_frame(
        self, served, walk_data
    ):
        """Hostile bodies end in a typed 400 and leave the session usable:
        a pipelined body with one bad frame submits none of its frames."""
        server, client = served
        space = TransitionStateSpace(walk_data.grid)
        batch = ColumnarStreamView(walk_data, space).batch_at(0)
        good = _frame(0, batch)
        bad_kind = _frame(1, ReportBatch.from_arrays([1], [0], [9]))
        bodies = {
            "json": b'{"schema":2,"type":"report-batch","t":0}',
            "empty": b"",
            "truncated": good[:-5],
            "trailing": good + good[:7],
            "oversized header": (
                b"RSF2" + struct.pack("<II", 2 * 1024 * 1024, 0) + good[12:]
            ),
            "bad _cols": _frame_with_cols(good, [[["x"], 1]]),
            "wrong type": schema.dump_frame(schema.snapshot_message([1])),
            "bad kind": good + bad_kind,
            "bad state": _frame(0, ReportBatch.from_arrays([1], [-3], [0])),
            "bad state high": _frame(
                0, ReportBatch.from_arrays([1], [space.size], [0])
            ),
            "NoEQ enter row": _frame(
                0, ReportBatch.from_arrays([1], [-1], [KIND_ENTER])
            ),
        }
        for name, body in bodies.items():
            status, msg = self._raw(server.port, "POST", "/v1/batch", body)
            assert status == 400, name
            assert msg["type"] == "error", name
            assert msg["error"] in ("SchemaError", "DomainError"), name
        assert client.stats()["ingest"]["n_submitted"] == 0
        ack = client.submit_batch(0, batch, n_real_active=len(batch))
        assert ack["t"] == 0 and ack["n"] == len(batch) > 0

    def test_one_domain_check_per_frame(self, served, walk_data, monkeypatch):
        """A pipelined body is admitted once, by the session."""
        server, _client = served
        view = ColumnarStreamView(walk_data, TransitionStateSpace(walk_data.grid))
        calls = []
        check_domain = ReportBatch.check_domain

        def spy(batch, space):
            calls.append(len(batch))
            return check_domain(batch, space)

        monkeypatch.setattr(ReportBatch, "check_domain", spy)
        body = b"".join(_frame(t, view.batch_at(t)) for t in range(3))
        status, msg = self._raw(server.port, "POST", "/v1/batch", body)
        assert status == 200 and msg["n_batches"] == 3
        assert calls == [len(view.batch_at(t)) for t in range(3)]

    def test_bad_middle_frame_submits_nothing(self, served, walk_data):
        server, client = served
        view = ColumnarStreamView(walk_data, TransitionStateSpace(walk_data.grid))
        before = client.stats()
        body = (
            _frame(0, view.batch_at(0))
            + _frame(1, ReportBatch.from_arrays([1], [-3], [0]))
            + _frame(2, view.batch_at(2))
        )
        status, msg = self._raw(server.port, "POST", "/v1/batch", body)
        assert status == 400 and msg["error"] == "DomainError"
        assert client.stats() == before

    def test_checkpoint_without_configured_path_is_rejected(self, served):
        server, _client = served
        status, msg = self._raw(server.port, "POST", "/v1/checkpoint")
        assert status == 400 and msg["error"] == "ConfigurationError"

    def test_client_surfaces_server_errors(self, served):
        _server, client = served
        with pytest.raises(SchemaError, match="ConfigurationError"):
            client.checkpoint()


@pytest.fixture
def distributed_server(walk_data):
    """An ingress over a K=2 distributed ingest session, plus a client."""
    spec = SessionSpec(
        epsilon=1.0, w=10, seed=21, transport="ingest",
        n_shards=2, shard_executor="distributed",
    )
    lam = max(1.0, average_length(walk_data.trajectories))
    server = _Server(create_session(spec, walk_data.grid, lam=lam))
    client = Client("127.0.0.1", server.port)
    yield server, client
    try:
        client.shutdown_server()
    except Exception:
        pass
    server.join()


def _items(data, space, n_timestamps):
    view = ColumnarStreamView(data, space)
    return [
        (
            t,
            view.batch_at(t),
            view.newly_entered_at(t),
            view.quitted_at(t),
            view.n_active_at(t),
        )
        for t in range(n_timestamps)
    ]


def _scrape(port: int) -> str:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", "/metrics")
        return conn.getresponse().read().decode("utf-8")
    finally:
        conn.close()


class TestDistributedRemoteRounds:
    def test_chunked_submit_batches_bit_identical(
        self, distributed_server, walk_data
    ):
        """A tiny chunk budget forces many POSTs; output is unperturbed."""
        _server, client = distributed_server
        hello = client.hello()
        assert hello["schema"] == 2
        client.chunk_bytes = 4_096  # forces many POSTs
        space = TransitionStateSpace(
            client.grid(), include_entering_quitting=hello["include_eq"]
        )
        ack = client.submit_batches(
            _items(walk_data, space, walk_data.n_timestamps)
        )
        assert ack["n_batches"] >= 1  # the final chunk's ack
        client.close()
        remote = client.result()

        reference = RetraSyn(
            RetraSynConfig(epsilon=1.0, w=10, seed=21, n_shards=2)
        ).run(walk_data)
        assert _streams(remote) == _streams(reference.synthetic)

    def test_transport_counters_exposed(self, distributed_server, walk_data):
        server, client = distributed_server
        hello = client.hello()
        space = TransitionStateSpace(
            client.grid(), include_entering_quitting=hello["include_eq"]
        )
        client.submit_batches(_items(walk_data, space, 12))
        body = _scrape(server.port)
        for family, kind in (
            ("retrasyn_shard_frames_total", "counter"),
            ("retrasyn_shard_bytes_total", "counter"),
            ("retrasyn_shard_roundtrip_seconds", "histogram"),
            ("retrasyn_ingress_frames_total", "counter"),
            ("retrasyn_ingress_bytes_total", "counter"),
        ):
            assert f"# TYPE {family} {kind}" in body, family
        samples = {}
        for line in body.splitlines():
            if line and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                samples[name] = float(value)
        for direction in ("sent", "received"):
            assert samples[f'retrasyn_shard_frames_total{{direction="{direction}"}}'] > 0
            assert samples[f'retrasyn_shard_bytes_total{{direction="{direction}"}}'] > 0
            assert samples[f'retrasyn_ingress_bytes_total{{direction="{direction}"}}'] > 0
        assert samples['retrasyn_ingress_frames_total{direction="received"}'] >= 12
        assert samples["retrasyn_shard_roundtrip_seconds_count"] > 0


class TestServeHttpResume:
    def test_cli_http_resume_loads_the_checkpoint(
        self, walk_data, tmp_path, monkeypatch
    ):
        """`repro serve --http --resume` must restore the saved curator
        instead of silently starting fresh."""
        import argparse

        import repro.api.http as http_mod
        from repro.cli import _serve_http

        path = str(tmp_path / "serve.ckpt")
        spec = SessionSpec(
            epsilon=1.0, w=10, seed=1, transport="ingest", checkpoint_path=path
        )
        session = create_session(
            spec, walk_data.grid, lam=max(1.0, average_length(walk_data.trajectories))
        )
        view = ColumnarStreamView(walk_data, session.curator.space)
        for t in range(7):
            session.submit_batch(
                t, view.batch_at(t),
                newly_entered=view.newly_entered_at(t),
                quitted=view.quitted_at(t),
                n_real_active=view.n_active_at(t),
            )
        session.advance()
        session.checkpoint()
        last_t = session.curator._last_t

        served = {}

        def fake_serve_http(session, host, port, on_ready=None):
            served["session"] = session
            ingress = http_mod.HttpIngress(session, host=host, port=port)
            return ingress

        monkeypatch.setattr(http_mod, "serve_http", fake_serve_http)
        args = argparse.Namespace(
            resume=True, host="127.0.0.1", http=0, out=None
        )
        assert _serve_http(args, walk_data, spec) == 0
        resumed = served["session"]
        assert resumed.curator._last_t == last_t
        assert resumed.spec.checkpoint_path == path

    def test_cli_http_resume_requires_a_checkpoint(self, walk_data):
        import argparse

        from repro.cli import _serve_http

        spec = SessionSpec(epsilon=1.0, w=10, transport="ingest")
        args = argparse.Namespace(resume=True, host="127.0.0.1", http=0, out=None)
        with pytest.raises(ValueError, match="--resume requires"):
            _serve_http(args, walk_data, spec)
        spec = dataclasses.replace(spec, checkpoint_path="/nonexistent/x.ckpt")
        with pytest.raises(FileNotFoundError):
            _serve_http(args, walk_data, spec)


class TestServeHttpEpilogue:
    """After the shutdown `repro serve --http` prints the live ledger's
    audit; it builds the synthetic database only to write ``--out``."""

    def _serve(self, walk_data, monkeypatch, capsys, out, division):
        import argparse

        import repro.api.http as http_mod
        from repro.cli import _serve_http

        served = {}

        def replay_then_stop(session, host, port, on_ready=None):
            view = ColumnarStreamView(walk_data, session.curator.space)
            for t in range(walk_data.n_timestamps):
                session.submit_batch(
                    t, view.batch_at(t),
                    newly_entered=view.newly_entered_at(t),
                    quitted=view.quitted_at(t),
                    n_real_active=view.n_active_at(t),
                )
            session.close()
            served["session"] = session
            return HttpIngress(session, host=host, port=port)

        monkeypatch.setattr(http_mod, "serve_http", replay_then_stop)
        spec = SessionSpec(
            epsilon=1.0, w=10, seed=4, transport="ingest", division=division
        )
        args = argparse.Namespace(resume=False, host="127.0.0.1", http=0, out=out)
        assert _serve_http(args, walk_data, spec) == 0
        audit = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("privacy audit: ")
        ]
        return served["session"], audit

    @pytest.mark.parametrize("division", ["population", "budget"])
    def test_no_out_builds_no_result_and_prints_the_same_audit(
        self, walk_data, monkeypatch, capsys, tmp_path, division
    ):
        from repro.api import session as session_mod
        from repro.datasets.io import load_stream_dataset

        out = tmp_path / "syn.npz"
        session, audit_with_out = self._serve(
            walk_data, monkeypatch, capsys, str(out), division
        )
        written = load_stream_dataset(str(out))
        assert written.n_timestamps == walk_data.n_timestamps
        summary = session.curator.accountant.summary()
        assert audit_with_out == [f"privacy audit: {summary}"]

        def no_result(self, *args, **kwargs):
            raise AssertionError("result() built without --out")

        monkeypatch.setattr(session_mod._SessionBase, "result", no_result)
        _, audit = self._serve(walk_data, monkeypatch, capsys, None, division)
        assert audit == audit_with_out


class TestIngressCheckpointing:
    def test_remote_checkpoint_writes_the_configured_path(
        self, walk_data, tmp_path
    ):
        path = str(tmp_path / "remote.ckpt")
        spec = SessionSpec(
            epsilon=1.0, w=10, seed=2, transport="ingest", checkpoint_path=path
        )
        lam = max(1.0, average_length(walk_data.trajectories))
        server = _Server(create_session(spec, walk_data.grid, lam=lam))
        client = Client("127.0.0.1", server.port)
        try:
            space = TransitionStateSpace(walk_data.grid)
            view = ColumnarStreamView(walk_data, space)
            for t in range(6):
                client.submit_batch(
                    t, view.batch_at(t),
                    newly_entered=view.newly_entered_at(t),
                    quitted=view.quitted_at(t),
                    n_real_active=view.n_active_at(t),
                )
            assert client.checkpoint() == path
            from repro.api.session import load_session

            resumed = load_session(path)
            assert resumed.spec == spec
        finally:
            client.shutdown_server()
            server.join()
