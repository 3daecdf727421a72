"""Failure-injection and edge-case robustness tests.

Pathological stream scenarios the pipelines must survive without crashing
or breaking the privacy guarantee: empty streams, single users, mass quits,
data deserts, extreme parameter settings — and a real server process
killed mid-round under load, resumed from its checkpoint.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.ldp_ids import make_baseline
from repro.core.retrasyn import RetraSyn, RetraSynConfig
from repro.geo.grid import unit_grid
from repro.geo.trajectory import CellTrajectory
from repro.datasets.synthetic import make_random_walks
from repro.metrics.registry import evaluate_all
from repro.stream.reports import KIND_ENTER, KIND_MOVE, KIND_QUIT, ReportBatch
from repro.stream.state_space import TransitionStateSpace
from repro.stream.stream import StreamDataset


def _run_all_methods(data, w=3):
    runs = []
    for division in ("budget", "population"):
        runs.append(
            RetraSyn(
                RetraSynConfig(epsilon=1.0, w=w, division=division, seed=0)
            ).run(data)
        )
    for strategy in ("lbd", "lpa"):
        runs.append(make_baseline(strategy, epsilon=1.0, w=w, seed=0).run(data))
    return runs


class TestDegenerateDatasets:
    def test_empty_dataset(self):
        data = StreamDataset(unit_grid(4), [], n_timestamps=10)
        for run in _run_all_methods(data):
            assert run.synthetic.n_timestamps == 10
            assert run.accountant.verify()

    def test_single_user_single_point(self):
        data = StreamDataset(
            unit_grid(4), [CellTrajectory(0, [5], user_id=0)], n_timestamps=5
        )
        for run in _run_all_methods(data):
            assert run.accountant.verify()

    def test_single_user_long_stream(self):
        cells = [5] * 20
        data = StreamDataset(
            unit_grid(4), [CellTrajectory(0, cells, user_id=0)], n_timestamps=22
        )
        for run in _run_all_methods(data, w=4):
            assert run.accountant.verify()

    def test_all_users_quit_simultaneously(self):
        """Everyone stops reporting at t=5; the stream goes dark."""
        trajs = [
            CellTrajectory(0, [i % 16] * 5, user_id=i) for i in range(40)
        ]
        data = StreamDataset(unit_grid(4), trajs, n_timestamps=20)
        for run in _run_all_methods(data):
            assert run.accountant.verify()
            # Synthetic population must also collapse to zero with EQ.
            if hasattr(run.config, "model_entering_quitting"):
                counts = run.synthetic.active_counts()
                assert counts[10] == 0

    def test_gap_then_resume(self):
        """A burst, a silent gap, then a second burst of fresh users."""
        first = [CellTrajectory(0, [1, 2], user_id=i) for i in range(20)]
        second = [
            CellTrajectory(12, [5, 6], user_id=100 + i) for i in range(20)
        ]
        data = StreamDataset(unit_grid(4), first + second, n_timestamps=20)
        for run in _run_all_methods(data):
            assert run.accountant.verify()

    def test_one_timestamp_horizon(self):
        data = StreamDataset(
            unit_grid(4),
            [CellTrajectory(0, [3], user_id=0)],
            n_timestamps=1,
        )
        run = RetraSyn(RetraSynConfig(epsilon=1.0, w=1, seed=0)).run(data)
        assert run.accountant.verify()
        assert run.synthetic.n_active_at(0) == 1


class TestExtremeParameters:
    def test_w_equals_one_event_level(self, walk_data):
        """w=1 degenerates to event-level privacy (Section II-B)."""
        run = RetraSyn(RetraSynConfig(epsilon=1.0, w=1, seed=0)).run(walk_data)
        assert run.accountant.verify()

    def test_w_larger_than_horizon(self, walk_data):
        run = RetraSyn(
            RetraSynConfig(epsilon=1.0, w=walk_data.n_timestamps * 2, seed=0)
        ).run(walk_data)
        assert run.accountant.verify()

    def test_tiny_epsilon(self, walk_data):
        run = RetraSyn(RetraSynConfig(epsilon=0.01, w=4, seed=0)).run(walk_data)
        assert run.accountant.verify()
        scores = evaluate_all(
            walk_data, run.synthetic, phi=5, metrics=("density_error",), rng=0
        )
        assert np.isfinite(scores["density_error"])

    def test_huge_epsilon(self, walk_data):
        run = RetraSyn(RetraSynConfig(epsilon=50.0, w=4, seed=0)).run(walk_data)
        assert run.accountant.verify()

    def test_k1_grid(self):
        """A single-cell world: everything is a self-loop."""
        trajs = [CellTrajectory(0, [0] * 6, user_id=i) for i in range(30)]
        data = StreamDataset(unit_grid(1), trajs, n_timestamps=10)
        run = RetraSyn(RetraSynConfig(epsilon=1.0, w=3, seed=0)).run(data)
        assert run.accountant.verify()
        for traj in run.synthetic.trajectories:
            assert set(traj.cells) == {0}

    def test_extreme_lambda_values(self, walk_data):
        for lam in (0.01, 1e6):
            run = RetraSyn(
                RetraSynConfig(epsilon=1.0, w=4, lam=lam, seed=0)
            ).run(walk_data)
            assert run.accountant.verify()

    def test_p_max_one(self, walk_data):
        run = RetraSyn(
            RetraSynConfig(epsilon=1.0, w=4, p_max=1.0, seed=0)
        ).run(walk_data)
        assert run.accountant.verify()


class TestAdversarialShapes:
    def test_everyone_in_one_cell(self):
        # Enough users that the OUE signal dominates the per-state noise
        # (with only dozens of reporters, eps=1 noise swamps a 100+-state
        # domain — that regime is exercised by test_tiny_epsilon instead).
        trajs = [CellTrajectory(0, [4] * 8, user_id=i) for i in range(800)]
        data = StreamDataset(unit_grid(3), trajs, n_timestamps=12)
        run = RetraSyn(RetraSynConfig(epsilon=1.0, w=3, seed=0)).run(data)
        syn_counts = run.synthetic.cell_counts_matrix().sum(axis=0)
        # The dominant cell must dominate the synthetic data too.
        assert np.argmax(syn_counts) == 4

    def test_population_explosion(self):
        """Population doubles every few timestamps."""
        trajs = []
        uid = 0
        for wave in range(5):
            for _ in range(2 ** wave * 5):
                trajs.append(
                    CellTrajectory(wave * 3, [wave % 16] * 4, user_id=uid)
                )
                uid += 1
        data = StreamDataset(unit_grid(4), trajs, n_timestamps=20)
        run = RetraSyn(RetraSynConfig(epsilon=1.0, w=4, seed=0)).run(data)
        assert run.accountant.verify()
        assert np.array_equal(
            data.active_counts(), run.synthetic.active_counts()
        )

    def test_alternating_flash_crowds(self):
        """Users appear only on even timestamps (worst case for recycling)."""
        trajs = []
        uid = 0
        for t in range(0, 20, 2):
            for _ in range(10):
                trajs.append(CellTrajectory(t, [uid % 16], user_id=uid))
                uid += 1
        data = StreamDataset(unit_grid(4), trajs, n_timestamps=22)
        for run in _run_all_methods(data, w=4):
            assert run.accountant.verify()


_LISTEN_RE = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")
_RESUME_RE = re.compile(r"resumed at t=(\d+)")


def _saturating_workload(n_users, horizon, k=4, seed=3):
    """A server's boot dataset (grid + λ donor) and the rounds to replay.

    ``n_users`` users all enter at ``t=0`` in random cells, emit one
    random movement report per timestamp and quit at the last one, so
    every round carries ``n_users`` rows; entirely derived from ``seed``.
    """
    seed_data = make_random_walks(
        k=k, n_streams=40, n_timestamps=horizon, seed=seed
    )
    rng = np.random.default_rng(seed)
    space = TransitionStateSpace(unit_grid(k))
    uids = np.arange(n_users, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    rounds = []
    for t in range(horizon):
        if t == 0:
            cells = rng.integers(0, space.n_cells, size=n_users)
            idx = space.enter_indices[0] + cells
            kind, entered, quitted, n_active = KIND_ENTER, uids, empty, n_users
        elif t == horizon - 1:
            cells = rng.integers(0, space.n_cells, size=n_users)
            idx = space.quit_indices[0] + cells
            kind, entered, quitted, n_active = KIND_QUIT, empty, uids, 0
        else:
            idx = rng.integers(0, space.n_move, size=n_users)
            kind, entered, quitted, n_active = KIND_MOVE, empty, empty, n_users
        batch = ReportBatch(
            uids, idx.astype(np.int64), np.full(n_users, kind, dtype=np.int8)
        )
        rounds.append((t, batch, entered, quitted, n_active))
    return seed_data, rounds


class TestServerCrashRecovery:
    """SIGKILL a ``repro serve --http`` process mid-round under load.

    The server checkpoints after every closed timestamp
    (``--checkpoint-every 1``).  Killing it loses whatever was buffered
    inside the open watermark window; a restarted server with
    ``--resume`` must pick up at the first unclosed timestamp, accept a
    replay of everything from there, and produce a synthetic database
    bitwise identical to an uninterrupted run — the checkpoint carries
    the engine's full RNG state, so recovery is not merely approximate.
    """

    EPSILON, W, SEED = 1.0, 5, 3

    def _boot(self, dataset_path, checkpoint=None, resume=False):
        """Start a server subprocess; returns (proc, port, resumed_t)."""
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--input", str(dataset_path), "--http", "0",
            "--epsilon", str(self.EPSILON), "--w", str(self.W),
            "--seed", str(self.SEED), "--no-audit",
        ]
        if checkpoint is not None:
            cmd += ["--checkpoint", str(checkpoint), "--checkpoint-every", "1"]
        if resume:
            cmd += ["--resume"]
        repo_src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(repo_src), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True,
        )
        port = resumed_t = None
        seen = []
        for _ in range(50):
            line = proc.stdout.readline()
            if not line:
                break
            seen.append(line)
            m = _RESUME_RE.search(line)
            if m:
                resumed_t = int(m.group(1))
            m = _LISTEN_RE.search(line)
            if m:
                port = int(m.group(1))
                break
        if port is None:  # pragma: no cover - diagnostic path
            proc.kill()
            raise RuntimeError(f"server did not start: {''.join(seen)!r}")
        return proc, port, resumed_t

    @staticmethod
    def _drain(client, rounds):
        for t, batch, entered, quitted, n_active in rounds:
            client.submit_batch(t, batch, entered, quitted, n_active)

    @staticmethod
    def _finish(client, proc):
        """Flush, fetch the synthetic database, stop the server."""
        client.close()
        synthetic = client.result()
        client.shutdown_server()
        proc.wait(timeout=30)
        return [
            (tr.start_time, list(tr.cells)) for tr in synthetic.trajectories
        ]

    def test_kill_mid_round_resume_is_bit_identical(self, tmp_path):
        from repro.api.client import Client
        from repro.datasets.io import save_stream_dataset

        seed_data, rounds = _saturating_workload(n_users=250, horizon=8)
        dataset_path = tmp_path / "crash_seed.npz"
        save_stream_dataset(seed_data, dataset_path)

        # Uninterrupted reference run.
        proc, port, _ = self._boot(dataset_path)
        try:
            client = Client("127.0.0.1", port)
            client.hello()
            self._drain(client, rounds)
            reference = self._finish(client, proc)
        finally:
            if proc.poll() is None:
                proc.kill()

        # Interrupted run: full rounds 0..4, then half of round 5 —
        # the kill lands with reports buffered in the open window.
        ckpt = tmp_path / "crash.ckpt"
        kill_round = 5
        proc, port, _ = self._boot(dataset_path, checkpoint=ckpt)
        try:
            client = Client("127.0.0.1", port)
            client.hello()
            self._drain(client, rounds[:kill_round])
            t, batch, entered, quitted, n_active = rounds[kill_round]
            half = batch.take(np.arange(len(batch) // 2))
            client.submit_batch(t, half, entered, quitted, n_active)
        finally:
            proc.kill()
            proc.wait(timeout=30)
        client.disconnect()
        assert ckpt.exists(), "no checkpoint survived the crash"

        # Resume and replay everything from the first unclosed timestamp.
        proc, port, resumed_t = self._boot(
            dataset_path, checkpoint=ckpt, resume=True
        )
        try:
            assert resumed_t is not None, "server did not announce a resume"
            # At least one timestamp closed pre-kill, none past the kill.
            assert 0 < resumed_t <= kill_round
            client = Client("127.0.0.1", port)
            client.hello()
            self._drain(client, rounds[resumed_t:])
            recovered = self._finish(client, proc)
        finally:
            if proc.poll() is None:
                proc.kill()

        assert recovered == reference


def _boot_server(
    dataset_path, *, epsilon=1.0, w=5, seed=3,
    checkpoint=None, resume=False, extra=(),
):
    """Start a ``repro serve --http`` subprocess; (proc, port, resumed_t)."""
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--input", str(dataset_path), "--http", "0",
        "--epsilon", str(epsilon), "--w", str(w),
        "--seed", str(seed), "--no-audit",
    ]
    if checkpoint is not None:
        cmd += ["--checkpoint", str(checkpoint), "--checkpoint-every", "1"]
    if resume:
        cmd += ["--resume"]
    cmd += list(extra)
    repo_src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo_src), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, text=True,
    )
    port = resumed_t = None
    seen = []
    for _ in range(50):
        line = proc.stdout.readline()
        if not line:
            break
        seen.append(line)
        m = _RESUME_RE.search(line)
        if m:
            resumed_t = int(m.group(1))
        m = _LISTEN_RE.search(line)
        if m:
            port = int(m.group(1))
            break
    if port is None:  # pragma: no cover - diagnostic path
        proc.kill()
        raise RuntimeError(f"server did not start: {''.join(seen)!r}")
    return proc, port, resumed_t


class TestGracefulDrain:
    """SIGTERM a loaded ``repro serve --http`` server: it must stop
    accepting, finish the buffered rounds, write a final checkpoint, exit
    0 — and a ``--resume`` replay of the remaining rounds must be bitwise
    identical to a run that was never interrupted."""

    EPSILON, W, SEED = 1.0, 5, 3

    def test_probes_and_metrics_then_sigterm_exits_clean(self, tmp_path):
        """The CI ops-smoke shape: boot a real server subprocess, scrape
        /healthz, /readyz and /metrics, SIGTERM it, assert exit 0."""
        import http.client
        import signal

        from repro.api.client import Client
        from repro.datasets.io import save_stream_dataset

        seed_data, rounds = _saturating_workload(n_users=250, horizon=8)
        dataset_path = tmp_path / "ops_seed.npz"
        save_stream_dataset(seed_data, dataset_path)

        def get(port, path):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                conn.request("GET", path)
                response = conn.getresponse()
                return response.status, response.read().decode()
            finally:
                conn.close()

        proc, port, _ = _boot_server(dataset_path)
        try:
            assert get(port, "/healthz") == (200, "ok\n")
            assert get(port, "/readyz") == (200, "ready\n")
            client = Client("127.0.0.1", port)
            client.hello()
            for t, batch, entered, quitted, n_active in rounds[:4]:
                client.submit_batch(t, batch, entered, quitted, n_active)
            status, body = get(port, "/metrics")
            assert status == 200
            assert "retrasyn_ingest_backlog" in body
            assert "retrasyn_round_seconds_count" in body
            assert "retrasyn_privacy_spend_events_total" in body
            client.disconnect()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_sigterm_drains_checkpoints_and_resumes_bitwise(self, tmp_path):
        import signal

        from repro.api.client import Client
        from repro.datasets.io import save_stream_dataset

        seed_data, rounds = _saturating_workload(n_users=250, horizon=8)
        dataset_path = tmp_path / "drain_seed.npz"
        save_stream_dataset(seed_data, dataset_path)

        def submit(client, some_rounds):
            for t, batch, entered, quitted, n_active in some_rounds:
                client.submit_batch(t, batch, entered, quitted, n_active)

        # Uninterrupted reference run.
        proc, port, _ = _boot_server(dataset_path)
        try:
            client = Client("127.0.0.1", port)
            client.hello()
            submit(client, rounds)
            client.close()
            reference = [
                (tr.start_time, list(tr.cells))
                for tr in client.result().trajectories
            ]
            client.shutdown_server()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()

        # Load the server with 6 of 8 rounds, then SIGTERM it.
        ckpt = tmp_path / "drain.ckpt"
        stop_round = 6
        proc, port, _ = _boot_server(dataset_path, checkpoint=ckpt)
        try:
            client = Client("127.0.0.1", port)
            client.hello()
            submit(client, rounds[:stop_round])
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        client.disconnect()
        assert rc == 0, "drained server must exit cleanly"
        assert ckpt.exists(), "drain did not write the final checkpoint"

        # Resume: the drain flushed every submitted round, so the server
        # picks up exactly where the stream stopped.
        proc, port, resumed_t = _boot_server(
            dataset_path, checkpoint=ckpt, resume=True
        )
        try:
            assert resumed_t == stop_round
            client = Client("127.0.0.1", port)
            client.hello()
            submit(client, rounds[resumed_t:])
            client.close()
            recovered = [
                (tr.start_time, list(tr.cells))
                for tr in client.result().trajectories
            ]
            client.shutdown_server()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()

        assert recovered == reference


class TestCheckpointRotationRecovery:
    """``--checkpoint-keep N`` + a torn newest generation: resume falls
    back to the previous intact generation instead of refusing to start."""

    def test_corrupt_newest_generation_falls_back(self, tmp_path):
        from repro.api.client import Client
        from repro.core.persistence import checkpoint_candidates
        from repro.datasets.io import save_stream_dataset

        seed_data, rounds = _saturating_workload(n_users=150, horizon=6)
        dataset_path = tmp_path / "rot_seed.npz"
        save_stream_dataset(seed_data, dataset_path)

        ckpt = tmp_path / "rot.ckpt"
        proc, port, _ = _boot_server(
            dataset_path, checkpoint=ckpt, extra=["--checkpoint-keep", "3"],
        )
        try:
            client = Client("127.0.0.1", port)
            client.hello()
            for t, batch, entered, quitted, n_active in rounds[:5]:
                client.submit_batch(t, batch, entered, quitted, n_active)
        finally:
            proc.kill()
            proc.wait(timeout=30)
        client.disconnect()

        generations = checkpoint_candidates(ckpt)
        generations = [p for p in generations if p.exists()]
        assert len(generations) >= 2, "rotation kept too few generations"
        newest = generations[0]
        newest.write_bytes(b"torn mid-write")

        proc, port, resumed_t = _boot_server(
            dataset_path, checkpoint=ckpt, resume=True,
            extra=["--checkpoint-keep", "3"],
        )
        try:
            assert resumed_t is not None, "fallback resume did not happen"
            # One generation behind the (corrupted) newest checkpoint.
            assert 0 < resumed_t < 5
        finally:
            proc.kill()
            proc.wait(timeout=30)


class TestHungShardWorker:
    """A SIGSTOPped worker must surface as a timeout naming the shard,
    not block the curator forever on a socket read."""

    def test_sigstop_worker_times_out_with_named_shard(self, walk_data):
        import signal

        from repro.core.online import OnlineRetraSyn
        from repro.exceptions import ShardWorkerError

        cfg = RetraSynConfig(
            epsilon=1.0, w=4, seed=0, n_shards=2,
            shard_executor="distributed", shard_round_timeout=2.0,
        )
        curator = OnlineRetraSyn(walk_data.grid, cfg, lam=5.0)

        def _step(t):
            curator.process_timestep(
                t,
                participants=walk_data.participants_at(t),
                newly_entered=walk_data.newly_entered_at(t),
                quitted=walk_data.quitted_at(t),
                n_real_active=walk_data.n_active_at(t),
            )

        victim = None
        try:
            for t in range(3):
                _step(t)
            victim = curator._pool._procs[1]
            os.kill(victim.pid, signal.SIGSTOP)
            with pytest.raises(
                ShardWorkerError, match=r"shard 1.*did not answer"
            ):
                for t in range(3, walk_data.n_timestamps):
                    _step(t)
        finally:
            if victim is not None and victim.is_alive():
                try:
                    os.kill(victim.pid, signal.SIGCONT)
                except ProcessLookupError:  # pragma: no cover
                    pass
            curator.close()


class TestShardWorkerDeath:
    """A shard worker killed mid-run surfaces as a typed ShardWorkerError.

    The socket-framed ``ShardSocketPool`` must detect the dead peer on
    the next round trip and raise
    :class:`~repro.exceptions.ShardWorkerError` naming the shard, instead
    of dying on a bare EOF/EPIPE.
    """

    @pytest.mark.parametrize("executor", ["distributed"])
    def test_sigkill_one_worker_mid_round(self, walk_data, executor):
        import signal

        from repro.core.online import OnlineRetraSyn
        from repro.exceptions import ShardWorkerError

        cfg = RetraSynConfig(
            epsilon=1.0, w=4, seed=0, n_shards=2, shard_executor=executor
        )
        curator = OnlineRetraSyn(walk_data.grid, cfg, lam=5.0)

        def _step(t):
            curator.process_timestep(
                t,
                participants=walk_data.participants_at(t),
                newly_entered=walk_data.newly_entered_at(t),
                quitted=walk_data.quitted_at(t),
                n_real_active=walk_data.n_active_at(t),
            )

        try:
            for t in range(3):
                _step(t)
            victim = curator._pool._procs[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            with pytest.raises(ShardWorkerError, match="shard 1"):
                for t in range(3, walk_data.n_timestamps):
                    _step(t)
        finally:
            curator.close()
