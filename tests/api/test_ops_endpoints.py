"""The operational plane of the HTTP ingress: /metrics, probes, drain."""

from __future__ import annotations

import asyncio
import http.client
import re
import threading
import time

import pytest

from repro.api.client import Client
from repro.api.http import HttpIngress
from repro.api.session import create_session
from repro.api.specs import SessionSpec
from repro.geo.trajectory import average_length
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.stream.reports import ColumnarStreamView
from repro.stream.state_space import TransitionStateSpace

#: One exposition line: `name{labels} value` with a float/int/±Inf/NaN value.
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})?"
    r" (-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|-Inf|NaN)$"
)


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


def _get(port: int, path: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return (
            response.status,
            response.getheader("Content-Type"),
            response.read().decode("utf-8"),
        )
    finally:
        conn.close()


@pytest.fixture
def served(walk_data):
    spec = SessionSpec(
        epsilon=1.0, w=10, seed=21, transport="ingest"
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


def _lam(data) -> float:
    return max(1.0, average_length(data.trajectories))


def _slow_closing(session, seconds: float = 2.0):
    """``session`` whose close() sleeps ``seconds`` before closing."""
    real_close = session.close

    def close(**kwargs):
        time.sleep(seconds)
        real_close(**kwargs)

    session.close = close
    return session


def _half_closed_read(*args, **kwargs):
    raise AssertionError("read a session whose close() had not finished")


def _replay(client, data, n: int):
    hello = client.hello()
    space = TransitionStateSpace(
        client.grid(), include_entering_quitting=hello["include_eq"]
    )
    view = ColumnarStreamView(data, space)
    for t in range(n):
        client.submit_batch(
            t,
            view.batch_at(t),
            newly_entered=view.newly_entered_at(t),
            quitted=view.quitted_at(t),
            n_real_active=view.n_active_at(t),
        )


class TestProbes:
    def test_healthz_is_always_alive(self, served):
        server, _client = served
        status, ctype, body = _get(server.port, "/healthz")
        assert status == 200
        assert body == "ok\n"
        assert ctype.startswith("text/plain")

    def test_readyz_reports_ready_once_serving(self, served):
        server, _client = served
        status, _ctype, body = _get(server.port, "/readyz")
        assert status == 200
        assert body == "ready\n"

    def test_readyz_flips_to_503_while_draining(self, served):
        server, _client = served
        server.ingress._draining = True
        try:
            status, _ctype, body = _get(server.port, "/readyz")
            assert status == 503
            assert body == "draining\n"
        finally:
            server.ingress._draining = False

    def test_batch_rejected_with_503_while_draining(self, served, walk_data):
        server, client = served
        server.ingress._draining = True
        try:
            with pytest.raises(Exception):
                _replay(client, walk_data, 1)
        finally:
            server.ingress._draining = False


class TestMetricsEndpoint:
    def test_scrape_is_valid_prometheus_text(self, served, walk_data):
        server, client = served
        _replay(client, walk_data, 8)
        status, ctype, body = _get(server.port, "/metrics")
        assert status == 200
        assert ctype == PROMETHEUS_CONTENT_TYPE
        for line in body.splitlines():
            if not line or line.startswith("#"):
                continue
            assert _SAMPLE_RE.match(line), f"malformed sample line: {line!r}"

    def test_scrape_exposes_the_operational_families(self, served, walk_data):
        server, client = served
        _replay(client, walk_data, 8)
        _status, _ctype, body = _get(server.port, "/metrics")
        for name in (
            "retrasyn_ingest_submitted_total",
            "retrasyn_ingest_processed_total",
            "retrasyn_ingest_backlog",
            "retrasyn_ingest_backlog_high_water",
            "retrasyn_ingest_watermark_lag",
            "retrasyn_round_seconds_bucket",
            "retrasyn_round_seconds_count",
            "retrasyn_rounds_total",
            "retrasyn_live_streams",
            "retrasyn_privacy_spend_events_total",
            "retrasyn_privacy_refusals_total",
            "retrasyn_privacy_max_window_spend",
        ):
            assert name in body, f"missing metric {name}"

    def test_counters_track_the_load(self, served, walk_data):
        server, client = served
        _replay(client, walk_data, 8)
        _status, _ctype, body = _get(server.port, "/metrics")
        samples = {
            line.split(" ")[0]: float(line.split(" ")[1])
            for line in body.splitlines()
            if line and not line.startswith("#") and "{" not in line
        }
        stats = client.stats()["ingest"]
        assert samples["retrasyn_ingest_submitted_total"] == stats["n_submitted"]
        assert samples["retrasyn_ingest_submitted_total"] > 0
        # watermark closes t <= 8-1-1: seven rounds processed, spends recorded
        assert samples["retrasyn_rounds_total"] >= 1
        assert samples["retrasyn_privacy_spend_events_total"] > 0
        assert samples["retrasyn_round_seconds_count"] == samples[
            "retrasyn_rounds_total"
        ]

    def test_distributed_executor_exposes_per_shard_round_gauges(
        self, walk_data
    ):
        spec = SessionSpec(
            epsilon=1.0, w=10, seed=21, transport="ingest",
            n_shards=2, shard_executor="distributed",
        )
        lam = max(1.0, average_length(walk_data.trajectories))
        server = _Server(create_session(spec, walk_data.grid, lam=lam))
        client = Client("127.0.0.1", server.port)
        try:
            _replay(client, walk_data, 6)
            _status, _ctype, body = _get(server.port, "/metrics")
            assert "# TYPE retrasyn_shard_round_seconds gauge" in body
            for shard in (0, 1):
                pattern = re.compile(
                    r'retrasyn_shard_round_seconds\{shard="%d"\} '
                    r"\d+(\.\d+)?([eE][+-]?\d+)?" % shard
                )
                assert pattern.search(body), f"no round gauge for shard {shard}"
        finally:
            try:
                client.shutdown_server()
            except Exception:
                pass
            server.join()

    def test_scrape_survives_a_closed_session(self, served, walk_data):
        """Projection callbacks over a finalised curator must not 500."""
        server, client = served
        _replay(client, walk_data, 4)
        client.close()
        status, _ctype, body = _get(server.port, "/metrics")
        assert status == 200
        assert "retrasyn_ingest_submitted_total" in body


class TestGracefulDrain:
    def test_drain_finishes_rounds_checkpoints_and_stops(
        self, walk_data, tmp_path
    ):
        ck = tmp_path / "drain.pkl"
        spec = SessionSpec(
            epsilon=1.0, w=10, seed=21, transport="ingest",
            checkpoint_path=str(ck), drain_deadline=15.0,
        )
        lam = max(1.0, average_length(walk_data.trajectories))

        async def main():
            session = create_session(spec, walk_data.grid, lam=lam)
            ingress = HttpIngress(session)
            await ingress.start()
            client = Client("127.0.0.1", ingress.port)
            await asyncio.to_thread(_replay, client, walk_data, 6)
            ingress.begin_drain()
            await asyncio.wait_for(ingress.serve_until_shutdown(), 15)
            return ingress

        ingress = asyncio.run(main())
        assert ingress._draining
        assert not ingress.drain_expired
        from repro.core.persistence import checkpoint_exists

        assert checkpoint_exists(str(ck))
        assert ingress.session.curator._last_t is not None

    def test_drain_deadline_bounds_a_slow_close(self, walk_data):
        """close() runs off the loop, so the deadline expires while it runs."""
        spec = SessionSpec(
            epsilon=1.0, w=10, seed=21, transport="ingest", drain_deadline=0.5
        )
        session = _slow_closing(
            create_session(spec, walk_data.grid, lam=_lam(walk_data))
        )

        async def main():
            ingress = HttpIngress(session)
            await ingress.start()
            started = time.perf_counter()
            ingress.begin_drain()
            await asyncio.wait_for(ingress.serve_until_shutdown(), 10)
            return ingress, time.perf_counter() - started

        ingress, elapsed = asyncio.run(main())
        assert ingress.drain_expired
        assert elapsed < 1.5, f"drain took {elapsed:.2f}s under a 0.5s deadline"

    def test_cli_reports_an_expired_drain_and_exits_nonzero(
        self, walk_data, tmp_path, monkeypatch, capsys
    ):
        import repro.api.http as http_mod
        import repro.serve as serve_mod
        from repro.cli import main
        from repro.datasets.io import save_stream_dataset

        path = tmp_path / "walks.npz"
        save_stream_dataset(walk_data, path)
        real_open, real_serve = serve_mod.open_session, http_mod.serve_http

        def open_slow(*args, **kwargs):
            session = _slow_closing(real_open(*args, **kwargs))
            session.result = session.stats = _half_closed_read
            return session

        def serve_then_drain(session, host, port, on_ready=None):
            def ready(ingress):
                on_ready(ingress)
                ingress.begin_drain()

            return real_serve(
                session, host=host, port=port, on_ready=ready,
                handle_signals=False,
            )

        monkeypatch.setattr(serve_mod, "open_session", open_slow)
        monkeypatch.setattr(http_mod, "serve_http", serve_then_drain)
        started = time.perf_counter()
        code = main([
            "serve", "--input", str(path), "--http", "0",
            "--drain-deadline", "0.5",
        ])
        elapsed = time.perf_counter() - started
        assert code == 1
        assert elapsed < 1.5, f"serve took {elapsed:.2f}s under a 0.5s deadline"
        err = capsys.readouterr().err
        assert "drain deadline of 0.5s expired" in err

    def test_begin_drain_is_idempotent(self, served):
        server, _client = served

        async def poke():
            server.ingress.begin_drain()
            server.ingress.begin_drain()

        # begin_drain needs the ingress loop; run it there.
        fut = asyncio.run_coroutine_threadsafe(
            poke(), server.ingress._server.get_loop()
        )
        fut.result(10)
        deadline = 10.0
        server._thread.join(deadline)
        assert not server._thread.is_alive()
