"""Layer replay and the per-layer ledger of a traced run.

The replay builds its *own* instance of every layer from the layer's public
constructor and feeds it a workload's rounds in the order the engine would:
decode → assemble → select → perturb → account → DMU → model → synthesis.
A second phase regenerates the same rounds for the shard plane (partition,
in-process shard rounds, and real shard workers behind a
``ShardSocketPool``) with the sampling rates and budgets the first phase
proposed, so neither plane's working set evicts the other's mid-round.
Every public call is one span named after the layer's module; a layer's
cost per round is its spans' self time.
The replay is measured beside the running program, never inside it: the
program's own counters are reported next to these numbers so the two can
be compared.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from drivers import batch_of, gateway_halves, session_spec
from harness import SpanRecorder, jsd, percentile, self_ms_by_name
from workloads import EPSILON, GRID_K, W, ChurnGenerator, Workload

from repro.api import schema
from repro.core.allocation import (
    AllocationContext,
    make_budget_allocator,
    make_population_allocator,
)
from repro.core.distributed import ShardSocketPool
from repro.core.dmu import DMUSelector
from repro.core.fast_synthesis import VectorizedSynthesizer
from repro.core.mobility_model import GlobalMobilityModel
from repro.core.online import sample_population_reporters_batch
from repro.core.sharded import CollectionShard
from repro.geo.grid import unit_grid
from repro.ldp.accountant import make_accountant
from repro.ldp.oue import OptimizedUnaryEncoding
from repro.stream.ingest import TimestampAssembler
from repro.stream.reports import ReportBatch, shard_of_array
from repro.stream.slots import UserSlotTable
from repro.stream.state_space import TransitionStateSpace
from repro.stream.user_tracker import UserTracker

#: Shards of the replayed shard plane (every ``*-shards`` workload uses 2).
REPLAY_SHARDS = 2
#: Budgets below this skip the collection, as the engine does.
MIN_EPSILON = 1e-8


def state_nbytes(obj) -> int:
    """Bytes held in numpy arrays by ``obj`` and the objects it owns."""
    seen, total, stack = set(), 0, [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            total += item.nbytes
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif hasattr(item, "__dict__") and not isinstance(item, type):
            stack.extend(vars(item).values())
    return total


class LayerReplay:
    """Bench-owned instances of every layer, driven one closed round at a time."""

    def __init__(self, workload: Workload, seed: int, recorder: SpanRecorder):
        self.workload, self.rec = workload, recorder
        self.config = session_spec(workload, seed).to_config()
        grid = unit_grid(GRID_K)
        self.space = TransitionStateSpace(grid)
        self.rng = np.random.default_rng(seed)
        self.population = workload.division == "population"
        slots = UserSlotTable()
        self.tracker = UserTracker(W, slots=slots) if self.population else None
        self.accountant = make_accountant(
            EPSILON, W, mode=self.config.accountant_mode, slots=slots
        )
        knobs = {"alpha": self.config.alpha, "p_max": self.config.p_max}
        self.allocator = (
            make_population_allocator(self.config.allocator, W, **knobs)
            if self.population
            else make_budget_allocator(self.config.allocator, EPSILON, W, **knobs)
        )
        self.context = AllocationContext(kappa=self.config.kappa)
        self.selector = DMUSelector()
        self.model = GlobalMobilityModel(self.space)
        self.synthesizer = VectorizedSynthesizer(
            self.model, lam=workload.shape.mean_length, rng=self.rng
        )
        self.assembler = TimestampAssembler(
            self.space, max_lateness=workload.max_lateness
        )
        self._late = None  # tdrive-http: gateway B's half, buffered next round
        self.model_ready = False
        self.schedule: dict[int, tuple] = {}  # t -> (rate, eps) as proposed
        self.real_hists: dict[int, np.ndarray] = {}
        self.frame_bytes: list[int] = []
        self.significant: list[int] = []
        self.density_jsd: list[float] = []

    # -- ingress: schema + assembler ------------------------------------ #
    def feed(self, r) -> None:
        """One generated round: encode/decode, buffer, close what is ready.

        Arrival order is the driver's: on ``tdrive-http`` the on-time
        gateway's half of ``t`` arrives, what the watermark releases closes,
        and only then the lagging gateway's half of ``t-1`` is buffered.
        """
        span = self.rec.span
        self.real_hists[r.t] = r.cell_hist
        http = self.workload.boundary == "http"
        on_time, late = gateway_halves(r) if http else (r, None)
        with span("round", r.t):
            # One request's batch: on tdrive-http the on-time gateway's
            # half, which rides the closing call.
            batch, entered, quitted = batch_of(on_time)
            with span("api.schema.encode", r.t):
                frame = schema.dump_frame(
                    schema.report_batch_message(
                        r.t, batch, entered, quitted, on_time.n_active
                    )
                )
            self.frame_bytes.append(len(frame))
            with span("api.schema.decode", r.t):
                schema.parse_report_batch(schema.load_frame(frame)[0])
            with span("stream.ingest.add_batch", r.t):
                self.assembler.add_batch(r.t, batch)
            with span("stream.ingest.close", r.t):
                ready = self.assembler.pop_ready()
            for closed in ready:
                self.engine_round(closed)
            self._buffer_late()
        self._late = late

    def _buffer_late(self) -> None:
        if self._late is not None:
            with self.rec.span("stream.ingest.add_batch", self._late.t):
                self.assembler.add_batch(self._late.t, batch_of(self._late)[0])
            self._late = None

    def flush(self) -> None:
        self._buffer_late()
        for closed in self.assembler.flush():
            with self.rec.span("round", closed.t):
                self.engine_round(closed)

    # -- one closed round through the engine's layers -------------------- #
    def engine_round(self, closed) -> None:
        span, t, batch = self.rec.span, closed.t, closed.batch
        rate, eps, chosen = None, EPSILON, batch
        if self.population:
            rate = self.allocator.propose(t, self.context)
            with span("core.online.select", t):
                rows = sample_population_reporters_batch(
                    self.tracker, {}, self.rng, self.config, t, batch,
                    closed.newly_entered, rate,
                )
            chosen = batch.take(rows)
        else:
            eps = self.allocator.propose(t, self.context)
            if eps < MIN_EPSILON:
                eps, chosen = 0.0, ReportBatch.empty()
            self.allocator.commit(eps)
        self.schedule[t] = (rate, eps)

        collected = None
        n = len(chosen)
        if n:
            oracle = OptimizedUnaryEncoding(
                self.space.size, eps, rng=self.rng, mode=self.config.oracle_mode
            )
            with span("ldp.oue.perturb", t):
                ones = oracle.simulate_ones(chosen.state_idx)
            with span("ldp.oue.debias", t):
                collected = oracle.debias(ones, n) / n
            with span("ldp.accountant.spend_many", t):
                self.accountant.spend_many(chosen.user_ids, t, eps)
            self.context.record_collection(collected)
        if self.tracker is not None:
            with span("stream.user_tracker.mark", t):
                self.tracker.mark_reported(chosen.user_ids, t)
                self.tracker.mark_quitted(closed.quitted)

        if collected is not None:
            if not self.model_ready:
                with span("core.mobility_model.update", t):
                    self.model.set_all(collected)
                self.model_ready = True
                n_significant = self.space.size
            else:
                with span("core.dmu.select", t):
                    decision = self.selector.select(
                        self.model.frequencies, collected, eps, n
                    )
                with span("core.mobility_model.update", t):
                    self.model.update_selected(decision.selected, collected)
                n_significant = decision.n_selected
            self.significant.append(n_significant)
            self.context.record_significant_ratio(n_significant / self.space.size)

        with span("core.fast_synthesis.step", t):
            if t == 0:
                self.synthesizer.spawn_from_entering(0, closed.n_active)
            else:
                self.synthesizer.step(t, closed.n_active)
        self.density_jsd.append(
            jsd(
                self.real_hists.pop(t),
                np.bincount(
                    self.synthesizer.live_last_cells(), minlength=GRID_K * GRID_K
                ),
            )
        )


class ShardPlaneReplay:
    """Bench-owned shards, in-process and behind real worker processes."""

    def __init__(self, workload: Workload, seed: int, recorder: SpanRecorder):
        self.rec = recorder
        config = session_spec(workload, seed).to_config()
        grid = unit_grid(GRID_K)
        seeds = [seed + 1 + k for k in range(REPLAY_SHARDS)]
        self.shards = [CollectionShard(grid, config, s) for s in seeds]
        tic = time.perf_counter()
        self.pool = ShardSocketPool(grid, config, seeds)
        self.spawn_s = time.perf_counter() - tic
        self.skew: list[float] = []
        self.n_rounds = 0

    def feed(self, r, rate, eps) -> None:
        """Partition, in-process shard rounds, and the same round over RPC."""
        span, t = self.rec.span, r.t
        batch, entered, quitted = batch_of(r)
        with span("core.sharded.partition", t):
            parts = batch.partition(REPLAY_SHARDS)
            entered, quits = (
                [ids[shard_of_array(ids, REPLAY_SHARDS) == k]
                 for k in range(REPLAY_SHARDS)]
                for ids in (entered, quitted)
            )
        rows = [len(p) for p in parts]
        self.skew.append(max(rows) / (sum(rows) / len(rows)))
        for k, shard in enumerate(self.shards):
            with span("core.sharded.shard_round", t):
                shard.round_batch(t, parts[k], entered[k], quits[k], rate, eps)
        with span("core.distributed.rpc_roundtrip", t):
            self.pool.submit(t, parts, entered, quits, False)
            self.pool.advance(t, rate, eps)
        self.n_rounds += 1


def run_replay(
    workload: Workload, seed: int, rounds: int, workdir: Path, spans_path: Path
) -> dict:
    """Replay ``rounds`` rounds through bench-owned layers; per-layer series."""
    recorder = SpanRecorder()
    replay = LayerReplay(workload, seed, recorder)
    for r in ChurnGenerator(workload.shape, seed, replay.space).rounds(rounds):
        replay.feed(r)
    replay.flush()
    replay.synthesizer.close()

    shards = ShardPlaneReplay(workload, seed, recorder)
    try:
        for r in ChurnGenerator(workload.shape, seed, replay.space).rounds(rounds):
            shards.feed(r, *replay.schedule[r.t])
        pool = shards.pool
        frames = pool.frames_sent + pool.frames_received
        wire_bytes = pool.bytes_sent + pool.bytes_received
    finally:
        shards.pool.close()
    recorder.write_jsonl(spans_path)

    by_name = self_ms_by_name(recorder.spans)

    def median(name: str) -> float:
        values = by_name.get(name, [])
        return percentile(values, 50) if values else 0.0

    shard_ms = np.asarray(by_name["core.sharded.shard_round"]).reshape(
        -1, REPLAY_SHARDS
    )
    slowest = shard_ms.max(axis=1)
    roundtrip = np.asarray(by_name["core.distributed.rpc_roundtrip"])
    metrics = {
        "api.schema.encode_ms": median("api.schema.encode"),
        "api.schema.decode_ms": median("api.schema.decode"),
        "api.schema.frame_bytes": float(np.median(replay.frame_bytes)),
        "stream.ingest.add_batch_ms": median("stream.ingest.add_batch"),
        "stream.ingest.close_ms": median("stream.ingest.close"),
        "core.online.select_ms": median("core.online.select"),
        "stream.user_tracker.mark_ms": median("stream.user_tracker.mark"),
        "ldp.oue.perturb_ms": median("ldp.oue.perturb"),
        "ldp.oue.debias_ms": median("ldp.oue.debias"),
        "ldp.accountant.spend_many_ms": median("ldp.accountant.spend_many"),
        "ldp.accountant.spend_many_ms_max": max(
            by_name.get("ldp.accountant.spend_many", [0.0])
        ),
        "ldp.accountant.state_bytes": float(state_nbytes(replay.accountant)),
        "core.dmu.select_ms": median("core.dmu.select"),
        "core.dmu.significant_per_round": float(np.median(replay.significant)),
        "core.mobility_model.update_ms": median("core.mobility_model.update"),
        "core.fast_synthesis.step_ms": median("core.fast_synthesis.step"),
        "core.fast_synthesis.step_ms_max": max(by_name["core.fast_synthesis.step"]),
        "core.fast_synthesis.live_streams": float(replay.synthesizer.n_live),
        "core.fast_synthesis.density_jsd": float(np.mean(replay.density_jsd)),
        "core.trajectory_store.state_bytes": float(
            state_nbytes(replay.synthesizer.store)
        ),
        "core.sharded.partition_ms": median("core.sharded.partition"),
        "core.sharded.shard_round_ms": percentile(slowest, 50),
        "core.sharded.shard_skew": float(np.median(shards.skew)),
        "core.distributed.rpc_roundtrip_ms": percentile(roundtrip, 50),
        "core.distributed.rpc_overhead_ms": percentile(roundtrip - slowest, 50),
        "core.distributed.frames_per_round": frames / shards.n_rounds,
        "core.distributed.bytes_per_round": wire_bytes / shards.n_rounds,
        "core.distributed.spawn_s": shards.spawn_s,
    }
    return {
        "ok": True, "metrics": metrics, "n_rounds": shards.n_rounds,
        "round_self_ms": median("round"),
    }


# ---------------------------------------------------------------------- #
# the ledger
# ---------------------------------------------------------------------- #
def path_layers(workload: Workload) -> list[str]:
    """The per-layer metrics whose work lies on this workload's round."""
    layers = [
        "api.session.snapshot_ms",
        "ldp.oue.debias_ms",
        "core.dmu.select_ms",
        "core.mobility_model.update_ms",
        "core.fast_synthesis.step_ms",
    ]
    if workload.boundary == "http":
        layers += ["api.schema.encode_ms", "api.schema.decode_ms"]
    if workload.transport == "ingest":
        layers += ["stream.ingest.add_batch_ms", "stream.ingest.close_ms"]
    if workload.shard_executor == "distributed":
        # The round trip contains the workers' selection, perturbation and
        # shard-local ledger spend.
        layers += ["core.sharded.partition_ms", "core.distributed.rpc_roundtrip_ms"]
    else:
        layers += ["ldp.oue.perturb_ms", "ldp.accountant.spend_many_ms"]
        if workload.division == "population":
            layers += ["core.online.select_ms", "stream.user_tracker.mark_ms"]
    return layers


def ledger(
    workload: Workload, untraced: dict, traced: dict, baseline: dict, replay: dict,
    driver_spans: Path,
) -> tuple[dict, dict]:
    """Every per-layer metric of one traced run, plus what it was read from."""
    with open(driver_spans, encoding="utf-8") as fh:
        driver = self_ms_by_name([json.loads(line) for line in fh])
    p50 = {
        name: percentile(result["round_ms"], 50)
        for name, result in (
            ("untraced", untraced), ("traced", traced), ("baseline", baseline)
        )
    }
    http = workload.boundary == "http"
    extras = (baseline if http else traced)["extras"]
    cpu = untraced["cpu_user_s"] + untraced["cpu_sys_s"]
    metrics = dict(replay["metrics"])
    metrics.update(
        {
            "api.http.buffer_request_ms": (
                percentile(driver["submit-late"], 50) if http else 0.0
            ),
            "api.http.boundary_overhead_ms": (
                p50["untraced"] - p50["baseline"] if http else 0.0
            ),
            "api.session.snapshot_ms": percentile(driver["snapshot"], 50),
            "api.session.result_ms": extras["result_ms"],
            "api.session.reports_per_s": (
                untraced["n_reports"] / untraced["call_seconds"]
            ),
            "api.session.serial_round_ms": p50["baseline"],
            "api.session.stall_rounds": float(untraced["stall_rounds"]),
            "api.session.round_ms_max": untraced["round_ms_max"],
            "api.session.sys_cpu_share": untraced["cpu_sys_s"] / cpu if cpu else 0.0,
            "stream.ingest.backlog_high_water_rows": float(
                untraced["backlog_high_water"]
            ),
            "core.online.reporters_per_round": (
                untraced["n_reporters"] / untraced["n_timestamps"]
            ),
            "core.persistence.save_ms": extras["save_ms"],
            "core.persistence.load_ms": extras["load_ms"],
            "core.persistence.checkpoint_bytes": float(extras["checkpoint_bytes"]),
            "trace.overhead_share": p50["traced"] / p50["untraced"] - 1.0,
        }
    )
    on_path = path_layers(workload)
    metrics["trace.unattributed_share"] = (
        1.0 - sum(metrics[name] for name in on_path) / p50["traced"]
    )
    n = max(1, traced["n_timestamps"])
    phase_prefix = 'retrasyn_phase_seconds_total{phase="'
    detail = {
        "round_ms_p50": p50,
        "round_samples": len(traced["round_ms"]),
        "layers_on_path": on_path,
        "replay_round_glue_ms": replay["round_self_ms"],
        # The program's own view of the same rounds, for comparison.
        "program_ms_per_round": {
            key[len(phase_prefix):-2]: seconds / n * 1e3
            for key, seconds in traced["program_metrics"].items()
            if key.startswith(phase_prefix)
        },
        "program_metrics": traced["program_metrics"],
        "driver_call_self_ms_p50": {
            name: float(np.median(values)) for name, values in driver.items()
        },
    }
    return metrics, detail
