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
``shard-submit``      One partition of a timestamp's traffic (the five
                      report columns).  The worker stages it and acks
                      with its partition's minimum remaining window
                      budget (when asked), which is all the per-user
                      budget allocator needs from the whole batch.
``shard-advance``     ``(t, rate, eps)`` — run the staged round:
                      selection, perturbation, tracker bookkeeping and
                      the shard-local budget spend.
``shard-merge``       The advance reply: raw one-counts, reporter ids,
                      user-side and whole-round seconds.
``shard-checkpoint``  Serialize (``op="get"``) or restore (``op="set"``)
                      the shard's full state — tracker, rng, ledger — as
                      an opaque pickle ``blob`` column.  Trusted local
                      transport only; never accepted from an ingress.
``shard-stats``       The shard ledger's audit summary and violations, and
                      the resident / retired row counts of the shard's
                      ledger and tracker planes.
``shard-exit``        Orderly shutdown.
====================  ===================================================

Why the output is bit-identical to the serial executor at the same
shard count K > 1 (the K=1 serial shard draws from the engine rng
instead, so one worker matches it in distribution only): the parent
draws the same per-shard seeds, each worker's :class:`CollectionShard`
consumes its rng in exactly the same sequence as the serial executor's
shard object, and accountant operations never touch any rng.  Moving the
spend into the worker changes *where* the ledger rows live, not a single
random draw — and because the hash partition is a disjoint cover of the
user population, per-user window totals (and therefore audit verdicts and
``adaptive-user`` budget proposals, which reduce to a batch-wide min) are
identical to the parent-ledger layout.  The one observable difference is
post-refusal ledger state: a strict refusal aborts the parent ledger
mid-batch, while shard ledgers beyond the offending shard still record
their rounds — the refusal itself (type, first offending shard) matches.

Dead workers are detected on every send/recv: a broken or EOF'd channel
raises :class:`~repro.exceptions.ShardWorkerError` naming the shard and
its exit code instead of hanging the coordinator.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import socket
import time
from typing import Optional, Sequence

import numpy as np

from repro.api import schema
from repro.exceptions import (
    ConfigurationError,
    PrivacyBudgetError,
    ShardWorkerError,
)
from repro.geo.grid import Grid
from repro.ldp.accountant import make_accountant
from repro.stream.reports import ReportBatch


# ---------------------------------------------------------------------- #
# socket framing
# ---------------------------------------------------------------------- #
def _recv_exact(sock: socket.socket, n: int, allow_eof: bool = False):
    """Read exactly ``n`` bytes; ``None`` on a clean EOF at a boundary."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if allow_eof and not buf:
                return None
            raise ConnectionError(
                f"peer closed mid-frame ({len(buf)}/{n} bytes)"
            )
        buf += chunk
    return bytes(buf)


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


def recv_frame_sized(sock: socket.socket) -> tuple[Optional[dict], int]:
    """:func:`recv_frame` plus the frame's on-wire byte count."""
    prefix = _recv_exact(sock, schema.FRAME_PREFIX_LEN, allow_eof=True)
    if prefix is None:
        return None, 0
    body = _recv_exact(sock, schema.frame_length(prefix))
    msg, _end = schema.load_frame(prefix + body)
    return msg, len(prefix) + len(body)


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """Read one length-prefixed frame; ``None`` when the peer closed.

    Raises :class:`ConnectionError` on a mid-frame EOF and
    :class:`~repro.api.schema.SchemaError` on malformed framing.
    """
    msg, _nbytes = recv_frame_sized(sock)
    return msg


# ---------------------------------------------------------------------- #
# the worker service
# ---------------------------------------------------------------------- #
class _ShardService:
    """One worker's state machine: a shard plus its local privacy ledger."""

    def __init__(self, grid: Grid, config, seed: int) -> None:
        from repro.core.sharded import CollectionShard

        self.config = config
        self.shard = CollectionShard(grid, config, seed)
        self.accountant = (
            make_accountant(
                config.epsilon,
                config.w,
                mode=config.accountant_mode,
            )
            if config.track_privacy
            else None
        )
        # The round a shard-submit staged for the next shard-advance:
        # ``(t, batch, entered, quitted)``, or None between rounds.
        self._staged: Optional[tuple] = None

    def handle(self, msg: dict) -> dict:
        type_ = msg["type"]
        if type_ == "shard-submit":
            return self._submit(msg)
        if type_ == "shard-advance":
            return self._advance(msg)
        if type_ == "shard-checkpoint":
            return self._checkpoint(msg)
        if type_ == "shard-stats":
            return self._stats()
        raise ConfigurationError(f"unexpected shard-RPC message {type_!r}")

    def _submit(self, msg: dict) -> dict:
        t = int(msg["t"])
        batch = ReportBatch(
            np.asarray(msg["user_ids"]),
            np.asarray(msg["state_idx"]),
            np.asarray(msg["kinds"]),
        )
        entered = np.asarray(msg["newly_entered"])
        quitted = np.asarray(msg["quitted"])
        self._staged = (t, batch, entered, quitted)
        min_remaining = None
        if msg.get("want_remaining") and self.accountant is not None and len(batch):
            min_remaining = float(
                np.min(self.accountant.remaining_many(batch.user_ids, t))
            )
        return schema.message("ack", t=t, min_remaining=min_remaining)

    def _run_round(self, t: int, rate: Optional[float], eps: float):
        """Advance the staged round, which must be round ``t``."""
        staged, self._staged = self._staged, None
        if staged is None or staged[0] != t:
            raise ConfigurationError(
                f"shard-advance for t={t} without a matching shard-submit"
            )
        _t, batch, entered, quitted = staged
        tic = time.perf_counter()
        ones, uids, user_seconds = self.shard.round_batch(
            t, batch, entered, quitted, rate, eps
        )
        # The shard-local spend: same uids, same eps, same round — only
        # the ledger's location differs from the parent-accounted pools.
        if self.accountant is not None and uids.size:
            self.accountant.spend_many(uids, t, eps)
        return ones, uids, user_seconds, time.perf_counter() - tic

    def _advance(self, msg: dict) -> dict:
        t = int(msg["t"])
        rate = msg.get("rate")
        rate = None if rate is None else float(rate)
        ones, uids, user_seconds, round_seconds = self._run_round(
            t, rate, float(msg["eps"])
        )
        return schema.message(
            "shard-merge",
            t=t,
            n=int(uids.size),
            user_seconds=float(user_seconds),
            # Wall-clock of the shard's whole round (selection, oracle,
            # ledger spend) — scraped as the per-shard /metrics gauge.
            round_seconds=float(round_seconds),
            ones=np.asarray(ones, dtype=np.float64),
            user_ids=np.asarray(uids, dtype=np.int64),
        )

    def _checkpoint(self, msg: dict) -> dict:
        if msg.get("op") == "get":
            blob = pickle.dumps(
                (self.shard, self.accountant), protocol=pickle.HIGHEST_PROTOCOL
            )
            return schema.message(
                "shard-checkpoint", op="state",
                blob=np.frombuffer(blob, dtype=np.uint8),
            )
        if msg.get("op") == "set":
            self.shard, self.accountant = pickle.loads(
                np.asarray(msg["blob"]).tobytes()
            )
            self._staged = None
            return schema.message("ack")
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
                "n_users": int(s["n_users"]),
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
            except (ConnectionError, OSError, schema.SchemaError):
                return
            if msg is None or msg["type"] == "shard-exit":
                return
            try:
                reply = service.handle(msg)
            except Exception as exc:
                reply = schema.error_message(exc)
            try:
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
    round is the two-phase ``submit`` / ``advance`` protocol, so the
    budget proposal can consult the shard-local ledgers between the
    phases.  All traffic is RSF2 binary frames: the round's columns
    move as raw little-endian buffers, never as pickles.
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
        #: Last advance's per-shard wall-clock seconds (metrics surface).
        self.shard_round_seconds: dict[int, float] = {}
        #: Frame-level transport counters (scraped by /metrics).
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Optional callback observing each submit/advance round-trip's
        #: wall seconds; the session binds it to a latency histogram's
        #: ``observe``.
        self.latency_observer = None
        for seed in seeds:
            parent_sock, child_sock = socket.socketpair()
            proc = ctx.Process(
                target=_socket_shard_worker,
                args=(child_sock, grid, config, int(seed)),
                daemon=True,
            )
            proc.start()
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

    def _send(self, k: int, msg: dict, op: str) -> None:
        try:
            self.bytes_sent += send_frame(self._socks[k], msg)
            self.frames_sent += 1
        except socket.timeout as exc:
            # Must precede OSError: socket.timeout is an OSError subclass,
            # and a stopped worker is a different diagnosis from a dead one.
            raise self._hung(k, op) from exc
        except OSError as exc:
            raise self._dead(k, op) from exc

    def _recv(self, k: int, op: str, expect: str) -> dict:
        try:
            msg, nbytes = recv_frame_sized(self._socks[k])
            self.bytes_received += nbytes
            if msg is not None:
                self.frames_received += 1
        except socket.timeout as exc:
            raise self._hung(k, op) from exc
        except (OSError, schema.SchemaError) as exc:
            raise self._dead(k, op) from exc
        if msg is None:
            raise self._dead(k, op)
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

        Privacy refusals and configuration errors keep their classes so
        callers' ``except`` clauses behave exactly as with the in-process
        executors; anything else surfaces as the pools' usual
        ``RuntimeError`` with shard context.
        """
        error, detail = msg.get("error", "Exception"), msg.get("detail", "")
        if error == "PrivacyBudgetError":
            return PrivacyBudgetError(detail)
        if error == "ConfigurationError":
            return ConfigurationError(detail)
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
        want_remaining: bool,
    ) -> Optional[float]:
        """Stage one timestamp's partitions on every shard.

        Returns the global minimum remaining window budget over all
        staged participants (``None`` when not requested or no shard has
        participants) — sufficient for ``adaptive-user`` proposals, which
        reduce the whole remaining vector to its minimum.
        """
        tic = time.perf_counter()
        for k in range(len(self._socks)):
            self._send(
                k,
                schema.message(
                    "shard-submit",
                    t=int(t),
                    want_remaining=bool(want_remaining),
                    user_ids=np.asarray(parts[k].user_ids),
                    state_idx=np.asarray(parts[k].state_idx),
                    kinds=np.asarray(parts[k].kinds),
                    newly_entered=np.asarray(entered[k]),
                    quitted=np.asarray(quits[k]),
                ),
                "submit",
            )
        mins = []
        for k in range(len(self._socks)):
            ack = self._recv(k, "submit", expect="ack")
            if ack.get("min_remaining") is not None:
                mins.append(float(ack["min_remaining"]))
        self._observe(time.perf_counter() - tic)
        return min(mins) if mins else None

    def advance(self, t: int, rate: Optional[float], eps: float) -> list:
        """Run the staged round everywhere; one merge tuple per shard.

        The tuples match ``CollectionShard.round_batch`` output —
        ``(ones, reporter_uids, user_seconds)`` — so the
        coordinator's merge code is shared with the serial executor.
        """
        tic = time.perf_counter()
        for k in range(len(self._socks)):
            self._send(
                k,
                schema.message(
                    "shard-advance",
                    t=int(t),
                    rate=None if rate is None else float(rate),
                    eps=float(eps),
                ),
                "advance",
            )
        outs = []
        for k in range(len(self._socks)):
            rep = self._recv(k, "advance", expect="shard-merge")
            self.shard_round_seconds[k] = float(rep.get("round_seconds", 0.0))
            outs.append(
                (
                    np.asarray(rep["ones"], dtype=np.float64),
                    np.asarray(rep["user_ids"], dtype=np.int64),
                    float(rep["user_seconds"]),
                )
            )
        self._observe(time.perf_counter() - tic)
        return outs

    def _observe(self, seconds: float) -> None:
        if self.latency_observer is not None:
            self.latency_observer(float(seconds))

    # -------------------------------------------------------------- #
    # checkpoint / audit verbs
    # -------------------------------------------------------------- #
    def get_states(self) -> list:
        """Fetch every shard's ``(CollectionShard, accountant)`` state."""
        for k in range(len(self._socks)):
            self._send(
                k, schema.message("shard-checkpoint", op="get"), "checkpoint"
            )
        states = []
        for k in range(len(self._socks)):
            rep = self._recv(k, "checkpoint", expect="shard-checkpoint")
            states.append(pickle.loads(np.asarray(rep["blob"]).tobytes()))
        return states

    def set_states(self, states: Sequence) -> None:
        """Ship ``(CollectionShard, accountant)`` states back to workers."""
        for k in range(len(self._socks)):
            blob = pickle.dumps(states[k], protocol=pickle.HIGHEST_PROTOCOL)
            self._send(
                k,
                schema.message(
                    "shard-checkpoint", op="set",
                    blob=np.frombuffer(blob, dtype=np.uint8),
                ),
                "checkpoint",
            )
        for k in range(len(self._socks)):
            self._recv(k, "checkpoint", expect="ack")

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
            for rep in (
                self._recv(k, "stats", expect="shard-stats")
                for k in range(len(self._socks))
            )
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
    are disjoint (hash partition), so the merge is exact: user counts
    add, window maxima take the max, verdicts AND together.
    """

    def __init__(self, engine=None, frozen: Optional[list] = None) -> None:
        self._engine = engine
        self._frozen = frozen

    # -------------------------------------------------------------- #
    def _shard_stats(self) -> list[dict]:
        eng = self._engine
        if eng is not None:
            pool = getattr(eng, "_pool", None)
            if pool is not None and getattr(pool, "alive", False):
                stats = pool.stats()
                self._frozen = stats
                return stats
            final = getattr(eng, "_final_summaries", None)
            if final is not None:
                return final
        if self._frozen is not None:
            return self._frozen
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
                "epsilon": 0.0, "w": 0, "n_users": 0,
                "max_window_spend": 0.0, "n_violations": 0, "satisfied": True,
            }
        return {
            "epsilon": float(summaries[0]["epsilon"]),
            "w": int(summaries[0]["w"]),
            "n_users": int(sum(s["n_users"] for s in summaries)),
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

    # -------------------------------------------------------------- #
    # pickling: checkpoints freeze the current summaries; the engine
    # re-binds a live view on restore.
    # -------------------------------------------------------------- #
    def __getstate__(self) -> dict:
        frozen = self._frozen
        if self._engine is not None:
            try:
                frozen = self._shard_stats()
            except Exception:  # pragma: no cover - defensive
                pass
        return {"_engine": None, "_frozen": frozen}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
