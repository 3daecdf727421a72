"""Distributed shard plane: per-shard worker services over binary sockets.

The serial executor of :class:`~repro.core.online.OnlineRetraSyn` runs
every collection shard in the engine's process, which also executes every
privacy spend.  ``shard_executor="distributed"`` — chosen in the engine's
constructor, at any shard count — promotes each shard to a *service*: a
worker process speaking the versioned RSF2 frame protocol
(:mod:`repro.api.schema`) over a local ``socketpair``, owning its
partition's

* :class:`~repro.core.sharded.CollectionShard` (tracker + frequency
  oracle), and
* a **shard-local privacy accountant** — per-shard spends and strict
  refusals never round-trip through the parent.

The coordinator side is :class:`ShardSocketPool`; its merge contract is
the serial executor's: per-shard one-counts come back as raw ``float64``
columns and are summed and debiased once by the parent.

Shard RPC (all messages are RSF2 binary frames; see ``docs/API.md``):

====================  ===================================================
``shard-round``       One timestamp for one shard, in one frame: the
                      partition's five report columns plus the globally
                      proposed ``(t, rate, eps)``.  The worker runs
                      selection, perturbation, tracker bookkeeping and
                      the shard-local budget spend.
``shard-merge``       The round reply: raw one-counts, reporter ids,
                      user-side and whole-round seconds.
``shard-checkpoint``  Return (``op="get"``) or restore (``op="set"``) the
                      shard and shard-ledger state: ``n_frames`` component
                      ``state`` frames follow the reply or request, moved
                      between worker and file unchanged.
``shard-stats``       The shard ledger's audit summary and violations, and
                      the resident / retired row counts of the shard's
                      ledger and tracker planes.
``shard-exit``        Orderly shutdown.
====================  ===================================================

A round is one ``shard-round`` out and one ``shard-merge`` back per
shard.  ``submit`` only stages the partitions on the coordinator, which
proposes and admits the round before ``advance`` sends anything, so a
refused round costs no traffic.

Placement: with ``2 <= K == CPUs`` (the coordinator's affinity set) worker
k is pinned to the k-th CPU of that set.  Left to the scheduler, both
freshly woken workers of a K=2 round on a 2-CPU host often land on one CPU
and run one after the other, so a round costs two shard rounds instead of
one.  That is the only configuration measured; at K=1, with idle CPUs to
spare (K < CPUs) or with more workers than CPUs, nothing is pinned.

Why the output is bit-identical to the serial executor at the same
shard count K > 1 (the K=1 serial shard draws from the engine rng
instead, so one worker matches it in distribution only): the parent
draws the same per-shard seeds, each worker's :class:`CollectionShard`
consumes its rng in exactly the same sequence as the serial executor's
shard object, and accountant operations never touch any rng.  Moving the
spend into the worker changes *where* the ledger rows live, not a single
random draw — and because the hash partition is a disjoint cover of the
user population, per-user window totals (and therefore audit verdicts)
are identical to the parent-ledger layout.  The one observable
difference is post-refusal ledger state: a strict refusal aborts the
parent ledger mid-batch, while shard ledgers beyond the offending shard
still record their rounds — the refusal itself (type, first offending
shard) matches.
Budget-division rounds under the schedule ledger never get that far: the
coordinator admits them (distinct uids, checked allocator commit) before
any worker draws.

Dead workers are detected on every send/recv: a broken or EOF'd channel
raises :class:`~repro.exceptions.ShardWorkerError` naming the shard and
its exit code instead of hanging the coordinator.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import socket
import time
from typing import Optional, Sequence

import numpy as np

from repro.api import schema
from repro.exceptions import (
    ConfigurationError,
    DatasetError,
    DomainError,
    PrivacyBudgetError,
    ShardWorkerError,
)
from repro.geo.grid import Grid
from repro.ldp.accountant import make_ledger
from repro.stream.reports import ReportBatch


# ---------------------------------------------------------------------- #
# socket framing
# ---------------------------------------------------------------------- #
def _recv_exact(sock: socket.socket, view, allow_eof: bool = False) -> bool:
    """Fill ``view`` from the socket; ``False`` on a clean EOF at a boundary."""
    got = 0
    while got < len(view):
        n = sock.recv_into(view[got:])
        if not n:
            if allow_eof and not got:
                return False
            raise ConnectionError(f"peer closed mid-frame ({got}/{len(view)} bytes)")
        got += n
    return True


def send_frame(sock: socket.socket, msg: dict) -> int:
    """Serialize one frame and write it fully; returns bytes sent.

    The frame's segments — length prefix + JSON header, then each raw
    column buffer — go out through one vectored ``sendmsg`` instead of
    being copied into a contiguous bytes object first, so a megabyte
    round's columns are never materialised twice on the send path.
    """
    parts = [memoryview(p).cast("B") for p in schema.dump_frame_parts(msg)]
    total = sum(p.nbytes for p in parts)
    sendmsg = getattr(sock, "sendmsg", None)
    if sendmsg is None:  # pragma: no cover - platforms without sendmsg
        sock.sendall(b"".join(parts))
        return total
    while parts:
        sent = sendmsg(parts)
        while parts and sent >= parts[0].nbytes:
            sent -= parts[0].nbytes
            parts.pop(0)
        if parts and sent:
            parts[0] = parts[0][sent:]
    return total


def recv_frame_bytes(sock: socket.socket) -> Optional[memoryview]:
    """One whole frame, undecoded and read-only; ``None`` when the peer closed.

    The prefix gives the frame's length; the rest is received straight
    into one buffer of that size, so each byte is copied once.  The view
    is read-only, so the columns :func:`~repro.api.schema.load_frame`
    decodes over it are too.
    """
    prefix = memoryview(bytearray(schema.FRAME_PREFIX_LEN))
    if not _recv_exact(sock, prefix, allow_eof=True):
        return None
    size = schema.FRAME_PREFIX_LEN + schema.frame_length(prefix)
    frame = memoryview(bytearray(size))
    frame[: schema.FRAME_PREFIX_LEN] = prefix
    _recv_exact(sock, frame[schema.FRAME_PREFIX_LEN :])
    return frame.toreadonly()


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """Read one length-prefixed frame; ``None`` when the peer closed.

    Raises :class:`ConnectionError` on a mid-frame EOF and
    :class:`~repro.api.schema.SchemaError` on malformed framing.
    """
    frame = recv_frame_bytes(sock)
    return None if frame is None else schema.load_frame(frame)[0]


# ---------------------------------------------------------------------- #
# the worker service
# ---------------------------------------------------------------------- #
#: The count a ledger's summary carries: ``n_users`` (per-user ledgers) or
#: ``n_reports`` (the schedule ledger).
_COUNT_KEYS = ("n_users", "n_reports")

#: Worker-side failures the coordinator re-raises with their own class.
_TYPED_WORKER_ERRORS = {
    cls.__name__: cls
    for cls in (PrivacyBudgetError, ConfigurationError, DatasetError, DomainError)
}


class _ShardService:
    """One worker's state machine: a shard plus its local privacy ledger."""

    def __init__(self, grid: Grid, config, seed: int) -> None:
        from repro.core.sharded import CollectionShard

        self.config = config
        self.shard = CollectionShard(grid, config, seed)
        self.accountant = make_ledger(config) if config.track_privacy else None

    def handle(self, msg: dict) -> list:
        """Reply frames: one, plus the state frames after a checkpoint get."""
        type_ = msg["type"]
        if type_ == "shard-round":
            return [self._round(msg)]
        if type_ == "shard-checkpoint":
            return self._checkpoint(msg)
        if type_ == "shard-stats":
            return [self._stats()]
        raise ConfigurationError(f"unexpected shard-RPC message {type_!r}")

    def _round(self, msg: dict) -> dict:
        t, rate, eps = int(msg["t"]), msg.get("rate"), float(msg["eps"])
        batch = ReportBatch(msg["user_ids"], msg["state_idx"], msg["kinds"])
        tic = time.perf_counter()
        ones, uids, user_seconds = self.shard.round_batch(
            t, batch, msg["newly_entered"], msg["quitted"],
            None if rate is None else float(rate), eps,
        )
        # The shard-local spend: same uids, same eps, same round — only
        # the ledger's location differs from the parent-accounted pools.
        if self.accountant is not None and uids.size:
            self.accountant.spend_many(uids, t, eps)
        return schema.message(
            "shard-merge",
            t=t,
            n=int(uids.size),
            user_seconds=float(user_seconds),
            # Wall-clock of the shard's whole round (selection, oracle,
            # ledger spend) — scraped as the per-shard /metrics gauge.
            round_seconds=time.perf_counter() - tic,
            ones=np.asarray(ones, dtype=np.float64),
            user_ids=np.asarray(uids, dtype=np.int64),
        )

    def _checkpoint(self, msg: dict) -> list:
        ledger = self.accountant.components() if self.accountant is not None else []
        components = self.shard.components() + ledger
        if msg.get("op") == "get":
            frames = [
                schema.message("state", component=kind, **component.state())
                for kind, component in components
            ]
            return [
                schema.message("shard-checkpoint", op="state", n_frames=len(frames)),
                *frames,
            ]
        if msg.get("op") == "set":
            schema.load_states(components, msg["frames"])
            return [schema.message("ack")]
        raise ConfigurationError(
            f"shard-checkpoint op must be 'get' or 'set', got {msg.get('op')!r}"
        )

    def _stats(self) -> dict:
        summary = violations = None
        if self.accountant is not None:
            s = self.accountant.summary()
            # Frame headers are JSON: strip numpy scalar types.
            summary = {
                "epsilon": float(s["epsilon"]),
                "w": int(s["w"]),
                # Per-user ledgers count users, the schedule ledger reports.
                **{key: int(s[key]) for key in _COUNT_KEYS if key in s},
                "max_window_spend": float(s["max_window_spend"]),
                "n_violations": int(s["n_violations"]),
                "satisfied": bool(s["satisfied"]),
                # Operational counters ride alongside the audit summary so
                # the merged view can expose spend/refusal totals without
                # changing the pinned summary() keys.
                "n_spend_events": int(
                    getattr(self.accountant, "n_spend_events", 0)
                ),
                "n_refusals": int(getattr(self.accountant, "n_refusals", 0)),
            }
            violations = [
                [int(uid), int(t), float(total)]
                for uid, t, total in self.accountant.violations
            ]
        from repro.core.online import plane_state

        return schema.message(
            "shard-stats", summary=summary, violations=violations,
            state=plane_state(self.accountant, self.shard.tracker),
        )


def _socket_shard_worker(sock: socket.socket, grid: Grid, config, seed: int) -> None:
    """Worker main loop: answer shard-RPC frames until exit or EOF."""
    service = _ShardService(grid, config, seed)
    try:
        while True:
            try:
                msg = recv_frame(sock)
                if msg is not None and msg["type"] == "shard-checkpoint" and (
                    msg.get("op") == "set"
                ):  # the component frames follow the request
                    msg["frames"] = [recv_frame(sock) for _ in range(msg["n_frames"])]
            except (ConnectionError, OSError, schema.SchemaError):
                return
            if msg is None or msg["type"] == "shard-exit":
                return
            try:
                replies = service.handle(msg)
            except Exception as exc:
                replies = [schema.error_message(exc)]
            try:
                for reply in replies:
                    send_frame(sock, reply)
            except OSError:
                return
    finally:
        sock.close()


# ---------------------------------------------------------------------- #
# the coordinator-side pool
# ---------------------------------------------------------------------- #
class ShardSocketPool:
    """Persistent shard worker services, one socket per shard.

    Lifecycle surface ``get_states`` / ``set_states`` / ``close``; a
    round is ``submit`` then ``advance``: the coordinator proposes and
    admits the round between the two calls, from its own state alone,
    and ``advance`` makes the round's one exchange with every worker.
    All traffic is RSF2 binary frames: the round's columns move as raw
    little-endian buffers, never as pickles.
    """

    def __init__(self, grid: Grid, config, seeds: Sequence[int]) -> None:
        round_timeout = float(config.shard_round_timeout)
        # 0 = wait forever (socket timeout None); otherwise every blocking
        # send/recv on a worker channel has a deadline, so a hung (stopped,
        # not dead) worker surfaces as a typed error instead of a freeze.
        self._round_timeout = round_timeout if round_timeout > 0 else None
        ctx = mp.get_context()
        self._procs: list = []
        self._socks: list[socket.socket] = []
        #: The round ``submit`` staged for ``advance``: ``(t, parts,
        #: entered, quits)``, or None between rounds.
        self._staged: Optional[tuple] = None
        #: Last advance's per-shard wall-clock seconds (metrics surface).
        self.shard_round_seconds: dict[int, float] = {}
        #: Frame-level transport counters (scraped by /metrics).
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Optional callback observing each round's exchange wall seconds;
        #: the session binds it to a latency histogram's ``observe``.
        self.latency_observer = None
        getaffinity = getattr(os, "sched_getaffinity", None)
        cpus = sorted(getaffinity(0)) if getaffinity is not None else []
        pin = 2 <= len(seeds) == len(cpus)
        for k, seed in enumerate(seeds):
            parent_sock, child_sock = socket.socketpair()
            proc = ctx.Process(
                target=_socket_shard_worker,
                args=(child_sock, grid, config, int(seed)),
                daemon=True,
            )
            proc.start()
            if pin:
                try:
                    os.sched_setaffinity(proc.pid, {cpus[k]})
                except OSError:  # this worker stays unpinned
                    pass
            child_sock.close()
            parent_sock.settimeout(self._round_timeout)
            self._socks.append(parent_sock)
            self._procs.append(proc)

    def __len__(self) -> int:
        return len(self._socks)

    @property
    def alive(self) -> bool:
        return bool(self._socks)

    # -------------------------------------------------------------- #
    # channel plumbing with dead-worker detection
    # -------------------------------------------------------------- #
    def _dead(self, k: int, op: str) -> ShardWorkerError:
        proc = self._procs[k]
        proc.join(timeout=1.0)
        code = proc.exitcode
        return ShardWorkerError(
            f"collection shard {k} worker died during {op!r} "
            f"(exitcode {code})"
        )

    def _hung(self, k: int, op: str) -> ShardWorkerError:
        return ShardWorkerError(
            f"collection shard {k} worker did not answer {op!r} within "
            f"{self._round_timeout}s (process alive but unresponsive)"
        )

    def _send(self, k: int, msg, op: str) -> None:
        """Send a message, or an encoded frame forwarded as it is."""
        try:
            if isinstance(msg, dict):
                self.bytes_sent += send_frame(self._socks[k], msg)
            else:
                self._socks[k].sendall(msg)
                self.bytes_sent += len(msg)
            self.frames_sent += 1
        except socket.timeout as exc:
            # Must precede OSError: socket.timeout is an OSError subclass,
            # and a stopped worker is a different diagnosis from a dead one.
            raise self._hung(k, op) from exc
        except OSError as exc:
            raise self._dead(k, op) from exc

    def _recv_frame(self, k: int, op: str) -> bytes:
        """One undecoded frame from shard ``k``."""
        try:
            frame = recv_frame_bytes(self._socks[k])
        except socket.timeout as exc:
            raise self._hung(k, op) from exc
        except (OSError, schema.SchemaError) as exc:
            raise self._dead(k, op) from exc
        if frame is None:
            raise self._dead(k, op)
        self.bytes_received += len(frame)
        self.frames_received += 1
        return frame

    def _recv(self, k: int, op: str, expect: str) -> dict:
        try:
            msg = schema.load_frame(self._recv_frame(k, op))[0]
        except schema.SchemaError as exc:
            raise self._dead(k, op) from exc
        if msg["type"] == "error":
            raise self._worker_error(k, op, msg)
        if msg["type"] != expect:
            raise ShardWorkerError(
                f"collection shard {k}: expected a {expect!r} reply to "
                f"{op!r}, got {msg['type']!r}"
            )
        return msg

    @staticmethod
    def _worker_error(k: int, op: str, msg: dict) -> Exception:
        """Re-raise a worker-reported failure with its original type.

        Privacy refusals, configuration, domain and dataset errors keep
        their classes so callers' ``except`` clauses behave exactly as
        with the in-process executors; anything else surfaces as the
        pools' usual ``RuntimeError`` with shard context.
        """
        error, detail = msg.get("error", "Exception"), msg.get("detail", "")
        typed = _TYPED_WORKER_ERRORS.get(error)
        if typed is not None:
            return typed(detail)
        return RuntimeError(
            f"collection shard {k} failed ({op}):\n{error}: {detail}"
        )

    # -------------------------------------------------------------- #
    # the round protocol
    # -------------------------------------------------------------- #
    def submit(
        self,
        t: int,
        parts: Sequence[ReportBatch],
        entered: Sequence[np.ndarray],
        quits: Sequence[np.ndarray],
        _unused: bool = False,
    ) -> None:
        """Stage one timestamp's partitions for :meth:`advance` (no I/O).

        ``_unused`` is ignored.  It is kept only because the round-cost
        benchmark (``benchmarks/round``) still passes it; it goes once that
        benchmark stops passing it.
        """
        self._staged = (int(t), parts, entered, quits)

    def advance(self, t: int, rate: Optional[float], eps: float) -> list:
        """Run the staged round everywhere; one merge tuple per shard.

        Each shard gets one ``shard-round`` frame and answers with one
        ``shard-merge``.  The tuples match ``CollectionShard.round_batch``
        output — ``(ones, reporter_uids, user_seconds)`` — so the
        coordinator's merge code is shared with the serial executor.
        """
        staged, self._staged = self._staged, None
        if staged is None or staged[0] != t:
            raise ConfigurationError(f"shard round t={t} without a matching submit")
        _t, parts, entered, quits = staged
        tic = time.perf_counter()
        for k in range(len(self._socks)):
            self._send(
                k,
                schema.message(
                    "shard-round",
                    t=int(t),
                    rate=None if rate is None else float(rate),
                    eps=float(eps),
                    user_ids=np.asarray(parts[k].user_ids),
                    state_idx=np.asarray(parts[k].state_idx),
                    kinds=np.asarray(parts[k].kinds),
                    newly_entered=np.asarray(entered[k]),
                    quitted=np.asarray(quits[k]),
                ),
                "round",
            )
        outs = []
        for k, rep in enumerate(self._gather("round", expect="shard-merge")):
            self.shard_round_seconds[k] = float(rep.get("round_seconds", 0.0))
            ones = np.asarray(rep["ones"], dtype=np.float64)
            uids = np.asarray(rep["user_ids"], dtype=np.int64)
            outs.append((ones, uids, float(rep["user_seconds"])))
        if self.latency_observer is not None:
            self.latency_observer(time.perf_counter() - tic)
        return outs

    def _gather(self, op: str, expect: str, follow=None) -> list:
        """One ``expect`` reply from every shard (``follow(k, rep)`` reads
        what trails it), raising the first failure only once every shard
        has been read, so no reply is left for the next exchange to take."""
        out, first = [], None
        for k in range(len(self._socks)):
            try:
                rep = self._recv(k, op, expect)
                out.append(follow(k, rep) if follow else rep)
            except Exception as exc:  # re-raised below
                first = exc if first is None else first
        if first is not None:
            raise first
        return out

    # -------------------------------------------------------------- #
    # checkpoint / audit verbs
    # -------------------------------------------------------------- #
    def get_states(self) -> list:
        """Every worker's component ``state`` frames, undecoded, by shard."""
        for k in range(len(self._socks)):
            self._send(k, schema.message("shard-checkpoint", op="get"), "checkpoint")
        return self._gather(
            "checkpoint",
            expect="shard-checkpoint",
            follow=lambda k, rep: [
                self._recv_frame(k, "checkpoint") for _ in range(rep["n_frames"])
            ],
        )

    def set_states(self, states: Sequence) -> None:
        """Send each worker the frames :meth:`get_states` returned for it."""
        for k, frames in enumerate(states):
            self._send(
                k,
                schema.message("shard-checkpoint", op="set", n_frames=len(frames)),
                "checkpoint",
            )
            for frame in frames:
                self._send(k, frame, "checkpoint")
        self._gather("checkpoint", expect="ack")

    def stats(self) -> list[dict]:
        """Per-shard ledger ``summary`` + ``violations`` and plane ``state``."""
        for k in range(len(self._socks)):
            self._send(k, schema.message("shard-stats"), "stats")
        return [
            {
                "summary": rep.get("summary"),
                "violations": [
                    tuple(v) for v in (rep.get("violations") or [])
                ],
                "state": rep.get("state"),
            }
            for rep in self._gather("stats", expect="shard-stats")
        ]

    def plane_states(self) -> list[dict]:
        """Each worker's ledger/tracker row counts (see ``plane_state``)."""
        return [entry["state"] for entry in self.stats()]

    def close(self) -> None:
        for sock in self._socks:
            try:
                send_frame(sock, schema.message("shard-exit"))
            except OSError:
                pass
            try:
                sock.close()
            except OSError:  # pragma: no cover - defensive
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
        self._socks, self._procs = [], []


# ---------------------------------------------------------------------- #
# the parent-side accountant façade
# ---------------------------------------------------------------------- #
class DistributedAccountantView:
    """Read-only merged view over the shard-local privacy ledgers.

    Bound as the distributed engine's ``accountant`` so every audit
    surface — ``stats()`` privacy blocks, ``SynthesisRun.accountant``,
    the CLI audit exit code — works unchanged.  Queries go to the live
    workers while the pool is open; the engine caches final summaries at
    ``close()`` so a finished run stays auditable.  Shard populations
    are disjoint (hash partition), so the merge is exact: user (or
    report) counts add, window maxima take the max, verdicts AND together.
    """

    def __init__(self, engine) -> None:
        self._engine = engine

    def _shard_stats(self) -> list[dict]:
        pool = self._engine._pool
        if pool is not None and pool.alive:
            return pool.stats()
        if self._engine._final_summaries is not None:
            return self._engine._final_summaries
        raise ShardWorkerError(
            "shard ledgers unreachable: the worker pool is closed and no "
            "final summary was cached"
        )

    @property
    def epsilon(self) -> float:
        stats = self._shard_stats()
        for entry in stats:
            if entry.get("summary"):
                return float(entry["summary"]["epsilon"])
        return 0.0

    @property
    def w(self) -> int:
        stats = self._shard_stats()
        for entry in stats:
            if entry.get("summary"):
                return int(entry["summary"]["w"])
        return 0

    def summary(self) -> dict:
        stats = self._shard_stats()
        summaries = [e["summary"] for e in stats if e.get("summary")]
        if not summaries:
            return {
                "epsilon": 0.0, "w": 0, "max_window_spend": 0.0,
                "n_violations": 0, "satisfied": True,
            }
        return {
            "epsilon": float(summaries[0]["epsilon"]),
            "w": int(summaries[0]["w"]),
            **{
                key: int(sum(s[key] for s in summaries))
                for key in _COUNT_KEYS if key in summaries[0]
            },
            "max_window_spend": float(
                max(s["max_window_spend"] for s in summaries)
            ),
            "n_violations": int(sum(s["n_violations"] for s in summaries)),
            "satisfied": bool(all(s["satisfied"] for s in summaries)),
        }

    def max_window_spend(self) -> float:
        return self.summary()["max_window_spend"]

    # Operational counters (the /metrics surface; not part of summary(),
    # whose key set is pinned equal across engines by the audit tests).
    def _counter(self, key: str) -> int:
        return int(
            sum(
                (e.get("summary") or {}).get(key, 0)
                for e in self._shard_stats()
            )
        )

    @property
    def n_spend_events(self) -> int:
        return self._counter("n_spend_events")

    @property
    def n_refusals(self) -> int:
        return self._counter("n_refusals")

    @property
    def n_users(self) -> int:
        return self.summary()["n_users"]

    @property
    def violations(self) -> list[tuple]:
        return [
            tuple(v)
            for entry in self._shard_stats()
            for v in (entry.get("violations") or [])
        ]

    def verify(self) -> bool:
        """Whether every shard's ledger satisfied the w-event bound."""
        return self.summary()["satisfied"]

