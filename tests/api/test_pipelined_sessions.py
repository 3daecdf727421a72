"""ISSUE 9 at the session/transport layer: pipelined rounds end to end.

``ShardingSpec.round_batch`` must flow through every boundary — the
direct and ingest sessions hand depth-sized groups to the curator, the
client chunks pipelined request bodies at its byte budget, and the
transport counters (shard pool and HTTP ingress) land on ``/metrics`` —
all without perturbing a single synthetic cell.
"""

from __future__ import annotations

import asyncio
import http.client
import threading

import pytest

from repro.api.client import Client
from repro.api.http import HttpIngress
from repro.api.session import create_session
from repro.api.specs import SessionSpec
from repro.geo.trajectory import average_length
from repro.stream.reports import ColumnarStreamView
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


def _streams(dataset):
    return [(t.start_time, list(t.cells)) for t in dataset]


def _session_fingerprint(walk_data, **flat):
    """Drive a full replay through a local session; fingerprint it."""
    spec = SessionSpec.from_flat(epsilon=1.0, w=10, seed=21, **flat)
    lam = max(1.0, average_length(walk_data.trajectories))
    session = create_session(spec, walk_data.grid, lam=lam)
    space = session.curator.space
    view = ColumnarStreamView(walk_data, space)
    results = []
    for t in range(walk_data.n_timestamps):
        session.submit_batch(
            t,
            view.batch_at(t),
            newly_entered=view.newly_entered_at(t),
            quitted=view.quitted_at(t),
            n_real_active=view.n_active_at(t),
        )
        results.extend(session.advance())
    session.close()
    run = session.result(walk_data.n_timestamps)
    return {"cells": _streams(run.synthetic), "results": results}


class TestSessionRoundBatch:
    @pytest.mark.parametrize("transport", ["direct", "ingest"])
    def test_depths_bit_identical_through_sessions(self, walk_data, transport):
        reference = _session_fingerprint(
            walk_data, transport=transport, n_shards=2
        )
        pipelined = _session_fingerprint(
            walk_data, transport=transport, n_shards=2, round_batch=3
        )
        assert pipelined == reference

    def test_unsharded_session_accepts_round_batch(self, walk_data):
        reference = _session_fingerprint(walk_data, transport="direct")
        pipelined = _session_fingerprint(
            walk_data, transport="direct", round_batch=4
        )
        assert pipelined == reference


@pytest.fixture
def pipelined_server(walk_data):
    """An ingress over a distributed pipelined session, plus a client."""
    spec = SessionSpec.from_flat(
        epsilon=1.0, w=10, seed=21, transport="ingest",
        n_shards=2, shard_executor="distributed", round_batch=3,
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


def _scrape(port: int) -> str:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", "/metrics")
        return conn.getresponse().read().decode("utf-8")
    finally:
        conn.close()


class TestRemotePipelinedRounds:
    def test_chunked_submit_batches_bit_identical(
        self, pipelined_server, walk_data
    ):
        """A tiny chunk budget forces many POSTs; output is unperturbed."""
        server, client = pipelined_server
        hello = client.hello()
        assert hello["schema"] == 2
        client.chunk_bytes = 4_096  # far below one frame group
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
        ack = client.submit_batches(items)
        assert ack["n_batches"] >= 1  # the final chunk's ack
        client.close()
        remote = client.result()

        reference = _session_fingerprint(
            walk_data, transport="ingest", n_shards=2,
        )
        assert _streams(remote) == reference["cells"]

    def test_transport_counters_exposed(self, pipelined_server, walk_data):
        server, client = pipelined_server
        hello = client.hello()
        space = TransitionStateSpace(
            client.grid(), include_entering_quitting=hello["include_eq"]
        )
        view = ColumnarStreamView(walk_data, space)
        client.submit_batches(
            [
                (
                    t,
                    view.batch_at(t),
                    view.newly_entered_at(t),
                    view.quitted_at(t),
                    view.n_active_at(t),
                )
                for t in range(12)
            ]
        )
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

    def test_fused_frames_reduce_round_trips(self, pipelined_server, walk_data):
        """Depth 3 must spend fewer shard frames than one per timestamp.

        The per-timestamp protocol costs 2 frames per shard per round
        (submit + advance); fused groups amortise both verbs, so the
        frames-per-round ratio must drop strictly below 2 per shard.
        """
        server, client = pipelined_server
        hello = client.hello()
        space = TransitionStateSpace(
            client.grid(), include_entering_quitting=hello["include_eq"]
        )
        view = ColumnarStreamView(walk_data, space)
        client.submit_batches(
            [
                (
                    t,
                    view.batch_at(t),
                    view.newly_entered_at(t),
                    view.quitted_at(t),
                    view.n_active_at(t),
                )
                for t in range(walk_data.n_timestamps)
            ]
        )
        pool = server.ingress.session.curator._pool
        rounds = server.ingress.session.stats()["n_timestamps"]
        assert rounds > 0
        frames_per_round = pool.frames_sent / rounds
        assert frames_per_round < 2 * 2  # 2 shards × 2 verbs, the depth-1 cost
