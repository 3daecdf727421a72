"""Boundary drivers: one measured pass of a workload through the system.

A *pass* launches the system behind one of its public boundaries, feeds it
a workload's rounds in a closed loop (one client, one connection, every
call waits for its reply), reads ``snapshot()`` after each closing call and
closes the stream.  Everything the correctness gate and the metrics need
is collected here and returned as one JSON-safe dict; nothing under
``src/`` is modified or monkey-patched.

Two boundaries exist:

* :class:`HttpBoundary` — ``python -m repro serve --http 0`` as a child
  process, driven by :class:`repro.api.client.Client` over RSF2 frames with
  two interleaved gateways (even uids on time, odd uids one timestamp late);
* :class:`SessionBoundary` — an in-process ``create_session`` session
  (direct or ingest transport; serial or distributed shards).
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import http.client
import os
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from harness import SpanRecorder, jsd
from workloads import EPSILON, GRID_K, W, ChurnGenerator, Round, Workload

from repro.api.client import Client
from repro.api.session import create_session, load_session
from repro.api.specs import SessionSpec
from repro.datasets.io import save_stream_dataset
from repro.geo.grid import unit_grid
from repro.geo.trajectory import CellTrajectory
from repro.stream.reports import KIND_ENTER, KIND_QUIT, ReportBatch
from repro.stream.state_space import TransitionStateSpace
from repro.stream.stream import StreamDataset

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: Rounds over this multiple of the pass's median count as stalls.
STALL_FACTOR = 10.0
#: Leading rounds whose snapshots must equal the reference run's.
FINGERPRINT_ROUNDS = 100


class BoundaryCallFailed(RuntimeError):
    """A boundary call raised, timed out or returned an error."""


class Calls:
    """Times every boundary call; counts attempts and failures.

    With a :class:`~harness.SpanRecorder` attached each call is also a span
    (child of the current ``request`` span) — the only difference between a
    traced and an untraced pass.
    """

    def __init__(self, recorder: Optional[SpanRecorder] = None) -> None:
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0
        self.seconds = 0.0  # Σ durations, first submit through close

    def call(self, name: str, t: Optional[int], fn: Callable, *args, **kwargs):
        """Run one boundary call; returns ``(result, seconds)``."""
        self.attempted += 1
        tic = time.perf_counter()
        try:
            if self.recorder is None:
                result = fn(*args, **kwargs)
            else:
                with self.recorder.span(name, t):
                    result = fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            raise BoundaryCallFailed(
                f"{name} (t={t}) failed: {type(exc).__name__}: {exc}"
            ) from exc
        seconds = time.perf_counter() - tic
        self.seconds += seconds
        return result, seconds

    def request(self, t: int):
        """Span grouping one round's calls (nothing without a recorder)."""
        if self.recorder is None:
            return nullcontext()
        return self.recorder.span("request", t)


def batch_of(r: Round) -> tuple:
    """``(batch, newly_entered, quitted)`` of one generated round."""
    return (
        ReportBatch(r.user_ids, r.state_idx, r.kinds),
        r.user_ids[r.kinds == KIND_ENTER],
        r.user_ids[r.kinds == KIND_QUIT],
    )


def gateway_halves(r: Round) -> tuple[Round, Round]:
    """Split a round between two gateways: even uids, odd uids."""
    halves = []
    for parity in (0, 1):
        rows = np.flatnonzero(r.user_ids % 2 == parity)
        halves.append(
            dataclasses.replace(
                r,
                user_ids=r.user_ids[rows],
                state_idx=r.state_idx[rows],
                kinds=r.kinds[rows],
                n_active=int((r.kinds[rows] != KIND_QUIT).sum()),
            )
        )
    return halves[0], halves[1]


def session_spec(workload: Workload, seed: int):
    return SessionSpec.from_flat(**workload.spec_fields(seed))


def peak_rss_mb() -> dict:
    """``ru_maxrss`` of this process and of its largest waited-for descendant."""
    return {
        name: resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux
        for name, who in (
            ("self", resource.RUSAGE_SELF), ("children", resource.RUSAGE_CHILDREN)
        )
    }


# ---------------------------------------------------------------------- #
# boundaries
# ---------------------------------------------------------------------- #
class SessionBoundary:
    """An in-process session behind ``create_session``."""

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.session = None

    def launch(self) -> None:
        """Build the session (shard workers included)."""
        self.session = create_session(
            session_spec(self.workload, self.seed),
            unit_grid(GRID_K),
            lam=self.workload.shape.mean_length,
        )
        self.space = self.session.curator.space
        self.lam = self.workload.shape.mean_length

    def drive_round(self, r: Round, calls: Calls):
        """Submit ``r``, advance, read the snapshot.

        Returns ``(closed timestamps, snapshot, seconds of those calls)``.
        """
        batch, entered, quitted = batch_of(r)
        with calls.request(r.t):
            _, d_submit = calls.call(
                "submit", r.t, self.session.submit_batch, r.t, batch,
                newly_entered=entered, quitted=quitted, n_real_active=r.n_active,
            )
            results, d_advance = calls.call("advance", r.t, self.session.advance)
            snapshot, d_snap = calls.call("snapshot", r.t, self.session.snapshot)
        return [res.t for res in results], snapshot, d_submit + d_advance + d_snap

    def finish(self, calls: Calls, extras: bool) -> dict:
        """End of stream; returns the program's own counters."""
        out: dict = {}
        if extras:
            out.update(self._extras())
        calls.call("close", None, self.session.close)
        out["snapshot"] = self.session.snapshot()
        out["stats"] = self.session.stats()
        out["metrics_text"] = self.session.metrics.render()
        return out

    def _extras(self) -> dict:
        """``result()`` and checkpoint save/load on the end-of-run state."""
        path = self.workdir / "checkpoint.pkl"
        tic = time.perf_counter()
        self.session.result()
        result_s = time.perf_counter() - tic
        tic = time.perf_counter()
        self.session.checkpoint(str(path))
        save_s = time.perf_counter() - tic
        tic = time.perf_counter()
        restored = load_session(str(path))
        load_s = time.perf_counter() - tic
        restored.close()
        nbytes = path.stat().st_size
        path.unlink()
        return {
            "result_ms": result_s * 1e3, "save_ms": save_s * 1e3,
            "load_ms": load_s * 1e3, "checkpoint_bytes": nbytes,
        }

    def kill(self) -> None:
        if self.session is not None:
            try:
                self.session.close()
            except Exception:  # noqa: BLE001 - best-effort cleanup after a failure
                pass


class HttpBoundary:
    """``repro serve --http`` as a child process, two gateways, one client."""

    BOOT_TIMEOUT_S = 60.0

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.proc: Optional[subprocess.Popen] = None
        self.client = None
        self._late: Optional[Round] = None  # gateway B's half, sent next round
        self._next_closed = 0

    def _write_donor(self) -> Path:
        """The dataset the served child takes its grid and λ from.

        Five streams whose mean length is exactly the shape's, so the
        child's derived λ equals the one in-process sessions are given.
        """
        total = round(self.workload.shape.mean_length * 5)
        lengths = [total // 5 + (i < total % 5) for i in range(5)]
        streams = [
            CellTrajectory(0, [0] * n, user_id=i) for i, n in enumerate(lengths)
        ]
        path = self.workdir / "donor.npz"
        save_stream_dataset(
            StreamDataset(
                unit_grid(GRID_K), streams, n_timestamps=max(lengths),
                name="round-bench-donor",
            ),
            path,
        )
        return path

    def launch(self) -> None:
        """Boot the served child and shake hands with it."""
        donor = self._write_donor()
        fields = self.workload.spec_fields(self.seed)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
        )
        log_path = self.workdir / "serve.log"
        deadline = time.perf_counter() + self.BOOT_TIMEOUT_S
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--input", str(donor), "--http", "0",
                    "--lateness", str(fields["max_lateness"]),
                    "--division", fields["division"],
                    "--epsilon", str(fields["epsilon"]), "--w", str(fields["w"]),
                    "--engine", fields["engine"],
                    "--oracle-mode", fields["oracle_mode"],
                    "--accountant-mode", fields["accountant_mode"],
                    "--shards", str(fields["n_shards"]),
                    "--shard-executor", fields["shard_executor"],
                    "--round-batch", str(fields["round_batch"]),
                    "--seed", str(self.seed),
                ],
                stdout=log, stderr=subprocess.STDOUT, env=env,
            )
        port = self._await_port(log_path, deadline)
        self.client = Client("127.0.0.1", port, timeout=60.0)
        self.lam = float(self.client.hello()["lam"])
        self.space = TransitionStateSpace(self.client.grid())

    def _await_port(self, log_path: Path, deadline: float) -> int:
        marker = b"listening on http://127.0.0.1:"
        while time.perf_counter() < deadline:
            text = log_path.read_bytes()
            at = text.find(marker)
            if at >= 0 and b" " in text[at + len(marker):]:
                return int(text[at + len(marker):].split(b" ", 1)[0])
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise BoundaryCallFailed(
            f"served child did not announce a port: {log_path.read_text()!r}"
        )

    def _submit(self, calls: Calls, name: str, half: Round):
        batch, entered, quitted = batch_of(half)
        return calls.call(
            name, half.t, self.client.submit_batch, half.t, batch,
            newly_entered=entered, quitted=quitted, n_real_active=half.n_active,
        )

    def drive_round(self, r: Round, calls: Calls):
        """A(t), snapshot, then B(t-1); only A can close a timestamp."""
        on_time, late = gateway_halves(r)
        with calls.request(r.t):
            ack, d_submit = self._submit(calls, "submit", on_time)
            snapshot, d_snap = calls.call("snapshot", r.t, self.client.snapshot)
            if self._late is not None:
                self._submit(calls, "submit-late", self._late)
        self._late = late
        n_closed = int(ack["n_rounds_processed"])
        closed = list(range(self._next_closed, self._next_closed + n_closed))
        self._next_closed += n_closed
        return closed, snapshot, d_submit + d_snap

    def finish(self, calls: Calls, extras: bool) -> dict:
        if self._late is not None:
            self._submit(calls, "submit-late", self._late)
        calls.call("close", None, self.client.close)
        out = {"snapshot": self.client.snapshot(), "stats": self.client.stats()}
        conn = http.client.HTTPConnection("127.0.0.1", self.client.port, timeout=60)
        try:
            conn.request("GET", "/metrics")
            out["metrics_text"] = conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()
        self.client.shutdown_server()
        self.proc.wait(timeout=120)
        return out

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


def make_boundary(workload: Workload, seed: int, workdir: Path):
    cls = HttpBoundary if workload.boundary == "http" else SessionBoundary
    return cls(workload, seed, workdir)


# ---------------------------------------------------------------------- #
# the pass
# ---------------------------------------------------------------------- #
def parse_prometheus(text: str) -> dict[str, float]:
    """``name{labels}`` → value for every sample line of a /metrics scrape."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            try:
                out[key] = float(value)
            except ValueError:
                continue
    return out


def _fingerprint(snapshot: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(snapshot, dtype=np.int64).tobytes()
    ).hexdigest()[:16]


def run_pass(
    workload: Workload,
    seed: int,
    seconds: float,
    workdir: Path,
    started_at: float,
    n_rounds: Optional[int] = None,
    spans_path: Optional[Path] = None,
    extras: bool = False,
    fault: Optional[str] = None,
) -> dict:
    """Launch, drive, close; returns everything measured and observed.

    ``started_at`` is the wall-clock time (``time.time()``) at which the
    parent started this process; set-up time runs from there — interpreter
    start, imports, launch of the system — to the moment the first report
    could be submitted.  ``seconds`` is a deadline on the measured loop, not
    a horizon: a pass that has not driven all ``n_rounds`` rounds when it
    expires stops, and the gate rejects it — metrics of a shorter horizon
    (fewer uids, less state, fewer growth stalls) must never stand beside
    those of a full one.
    ``fault`` injects a defect for the gate's own tests:
    ``corrupt-snapshot`` flips one cell of round 50's snapshot before it
    is checked, ``refuse-spend`` duplicates one user's report in round 30
    so a budget-division ledger must refuse the second spend.
    """
    n_rounds = workload.shape.n_rounds if n_rounds is None else n_rounds
    recorder = SpanRecorder() if spans_path is not None else None
    calls = Calls(recorder)
    boundary = make_boundary(workload, seed, workdir)
    try:
        boundary.launch()
        setup_s = time.time() - started_at
        generator = ChurnGenerator(workload.shape, seed, boundary.space)
        pending: dict[int, tuple] = {}  # t -> (real density, n_active)
        round_ms: dict[int, float] = {}
        fingerprints: dict[int, str] = {}
        jsd_sum, n_closed, len_mismatches, n_reports, n_driven = 0.0, 0, 0, 0, 0

        def settle(closed: list, snapshot: np.ndarray) -> None:
            """Check the snapshot read after the call that closed ``closed``.

            It shows the last timestamp closed; earlier ones in the same
            call (only the end-of-stream flush closes several) go unchecked.
            """
            nonlocal jsd_sum, n_closed, len_mismatches
            if not closed:
                return
            for t in closed[:-1]:
                pending.pop(t)
            t = closed[-1]
            real_hist, n_active = pending.pop(t)
            if fault == "corrupt-snapshot" and t == 50:
                snapshot = snapshot.copy()
                snapshot[0] = (snapshot[0] + 1) % (GRID_K * GRID_K)
            len_mismatches += len(snapshot) != n_active
            jsd_sum += jsd(
                real_hist, np.bincount(snapshot, minlength=GRID_K * GRID_K)
            )
            n_closed += 1
            if t < FINGERPRINT_ROUNDS:
                fingerprints[t] = _fingerprint(snapshot)

        gc.collect()
        cpu0, wall0 = os.times(), time.perf_counter()
        for r in generator.rounds(n_rounds):
            if time.perf_counter() - wall0 > seconds:
                break
            if fault == "refuse-spend" and r.t == 30:
                r = dataclasses.replace(
                    r,
                    user_ids=np.insert(r.user_ids, 1, r.user_ids[0]),
                    state_idx=np.insert(r.state_idx, 1, r.state_idx[0]),
                    kinds=np.insert(r.kinds, 1, r.kinds[0]),
                )
            pending[r.t] = (r.cell_hist, r.n_active)
            n_reports += len(r)
            n_driven += 1
            closed, snapshot, call_s = boundary.drive_round(r, calls)
            if len(closed) == 1:
                round_ms[closed[0]] = call_s * 1e3
            settle(closed, snapshot)
        program = boundary.finish(calls, extras)
        cpu1, wall_s = os.times(), time.perf_counter() - wall0
        settle(sorted(pending), program.pop("snapshot"))
    except BoundaryCallFailed as exc:
        boundary.kill()
        return {
            "ok": False, "error": str(exc),
            "attempted": calls.attempted, "failed": calls.failed,
        }
    except BaseException:
        boundary.kill()
        raise

    if recorder is not None:
        recorder.write_jsonl(spans_path)
    stats = program["stats"]
    privacy = stats.get("privacy", {})
    steady = [ms for t, ms in sorted(round_ms.items()) if t >= W]
    median_ms = float(np.median(steady)) if steady else 0.0
    user = (cpu1.user - cpu0.user) + (cpu1.children_user - cpu0.children_user)
    system = (cpu1.system - cpu0.system) + (
        cpu1.children_system - cpu0.children_system
    )
    return {
        "ok": True,
        "workload": workload.name,
        "seed": seed,
        "setup_s": setup_s,
        "lam": boundary.lam,
        "horizon": n_rounds,
        "n_rounds_driven": n_driven,
        "n_rounds_closed": n_closed,
        "n_reports": n_reports,
        "call_seconds": calls.seconds,
        "wall_seconds": wall_s,
        "round_ms": steady,
        "round_ms_max": max(steady, default=0.0),
        "stall_rounds": sum(ms > STALL_FACTOR * median_ms for ms in steady),
        "cpu_user_s": user,
        "cpu_sys_s": system,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "peak_rss_mb": peak_rss_mb(),
        "fingerprints": [fingerprints[t] for t in sorted(fingerprints)],
        "jsd_mean": jsd_sum / max(1, n_closed),
        "snapshot_len_mismatches": len_mismatches,
        "privacy_satisfied": bool(privacy.get("satisfied", False)),
        "max_window_spend": float(privacy.get("max_window_spend", float("inf"))),
        "late_dropped": int(stats.get("ingest", {}).get("n_late_dropped", 0)),
        "backlog_high_water": int(
            stats.get("ingest", {}).get("backlog_high_water", 0)
        ),
        "n_reporters": int(stats["n_reporters"]),
        "n_timestamps": int(stats["n_timestamps"]),
        "extras": {
            k: program[k]
            for k in ("result_ms", "save_ms", "load_ms", "checkpoint_bytes")
            if k in program
        },
        "program_metrics": {
            k: v
            for k, v in parse_prometheus(program.get("metrics_text", "")).items()
            if k.startswith(
                (
                    "retrasyn_phase_seconds_total",
                    "retrasyn_ingress_",
                    "retrasyn_shard_frames_total",
                    "retrasyn_shard_bytes_total",
                    "retrasyn_round_seconds_sum",
                    "retrasyn_rounds_total",
                )
            )
        },
    }


def run_setup(
    workload: Workload, seed: int, workdir: Path, started_at: float
) -> dict:
    """Launch the system, note when the first report could go in, stop it."""
    boundary = make_boundary(workload, seed, workdir)
    try:
        boundary.launch()
        return {"ok": True, "setup_s": time.time() - started_at}
    finally:
        boundary.kill()


# ---------------------------------------------------------------------- #
# variants and the correctness gate
# ---------------------------------------------------------------------- #
def variant_of(workload: Workload, variant: str) -> Workload:
    """The workload itself, its bit-identity reference or its baseline.

    ``reference`` is the run whose first rounds the workload must equal
    (the workload's ``reference`` fields applied); ``baseline`` is the same
    rounds through a K=1 serial in-process session — the single-threaded
    figure the boundary and shard overheads are read against.
    """
    if variant == "self":
        return workload
    if variant == "reference":
        return dataclasses.replace(workload, **dict(workload.reference))
    if variant == "baseline":
        return dataclasses.replace(
            workload, boundary="session", n_shards=1, shard_executor="serial"
        )
    raise ValueError(f"unknown variant {variant!r}")


def gate(
    result: dict,
    workload: Workload,
    reference: Optional[dict] = None,
    check_ceiling: bool = True,
) -> list[str]:
    """Everything wrong with a pass; an empty list lets its metrics through."""
    if not result.get("ok"):
        return [f"pass failed: {result.get('error', 'no result')}"]
    problems = []
    if result["failed"]:
        problems.append(
            f"{result['failed']} of {result['attempted']} boundary calls failed"
        )
    if not result["privacy_satisfied"]:
        problems.append("stats()['privacy']['satisfied'] is false")
    if result["max_window_spend"] > EPSILON + 1e-9:
        problems.append(
            f"max_window_spend {result['max_window_spend']} exceeds ε={EPSILON}"
        )
    if result["snapshot_len_mismatches"]:
        problems.append(
            f"{result['snapshot_len_mismatches']} snapshots differ in size "
            "from n_real_active"
        )
    if result["late_dropped"]:
        problems.append(f"{result['late_dropped']} reports dropped as late")
    if result["n_rounds_driven"] < result["horizon"]:
        problems.append(
            f"the --seconds budget was spent after {result['n_rounds_driven']} "
            f"of {result['horizon']} rounds"
        )
    if result["n_rounds_closed"] == 0:
        problems.append("no round closed")
    if check_ceiling and result["jsd_mean"] > workload.jsd_ceiling:
        problems.append(
            f"mean density JSD {result['jsd_mean']:.5f} above the ceiling "
            f"{workload.jsd_ceiling}"
        )
    if reference is not None:
        if not reference.get("ok"):
            problems.append(f"reference pass failed: {reference.get('error')}")
        else:
            want, got = reference["fingerprints"], result["fingerprints"]
            n = len(want)
            first = next(
                (i for i, (a, b) in enumerate(zip(got, want)) if a != b), None
            )
            if first is not None:
                problems.append(
                    f"snapshots diverge from the reference at round {first} "
                    f"(of the first {n})"
                )
            elif n == 0 or len(got) < n:
                problems.append(
                    f"only {len(got)} of the reference's first {n} rounds "
                    "were closed"
                )
    return problems
