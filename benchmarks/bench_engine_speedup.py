"""Engine acceleration: synthesis *and* collection (Section VII future work).

Six measurements:

* object vs. vectorized synthesis engine (per-timestamp synthesis cost);
* per-user-loop vs. batched exact-mode OUE collection at n=100k users —
  the ISSUE 1 acceptance gate (>= 5x);
* unsharded vs. sharded collection engine on a full pipeline run;
* object vs. columnar report plane over the persistent shard worker pool —
  the ISSUE 2 acceptance gate (>= 3x end-to-end collection at n=100k);
* dict-ledger vs. columnar privacy accountant at n=100k reporters —
  the ISSUE 3 acceptance gate (>= 5x ``spend_many`` throughput, with
  bit-identical pipeline output in both modes at K=1 and K=4);
* the synthesis plane under model churn at 100k live streams on a 4096-cell
  grid — the ISSUE 4 acceptance gate (incremental compile + columnar store
  >= 5x the object ``Synthesizer`` and >= 2x the previous
  ``VectorizedSynthesizer``, i.e. ``compile_mode="full-loop"``), persisted
  machine-readable as ``results/BENCH_synthesis.json``.

Each verifies that acceleration does not change utility / statistics.
``--quick`` (a benchmarks-only pytest option) shrinks the report-plane,
accountant and synthesis-plane measurements to smoke scale with relaxed
gates, which is what the CI smoke job runs.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from _util import run_once

from repro.core.fast_synthesis import VectorizedSynthesizer
from repro.core.mobility_model import GlobalMobilityModel
from repro.core.retrasyn import RetraSyn, RetraSynConfig
from repro.core.sharded import ShardedOnlineRetraSyn
from repro.core.synthesis import Synthesizer
from repro.datasets.registry import load_dataset
from repro.datasets.synthetic import make_random_walks
from repro.geo.grid import unit_grid
from repro.ldp.accountant import make_accountant
from repro.ldp.oue import OptimizedUnaryEncoding
from repro.metrics.registry import evaluate_all
from repro.stream.events import TransitionState
from repro.stream.reports import KIND_ENTER, KIND_MOVE, ReportBatch
from repro.stream.state_space import TransitionStateSpace


def test_vectorized_engine_speedup(benchmark, bench_setting, save_artifact):
    setting = replace(bench_setting, scale=max(bench_setting.scale, 0.05))
    data = load_dataset("sanjoaquin", scale=setting.scale, seed=0)

    def run_both():
        out = {}
        for engine in ("object", "vectorized"):
            cfg = RetraSynConfig(
                epsilon=1.0, w=setting.w, engine=engine, seed=0
            )
            run = RetraSyn(cfg).run(data)
            scores = evaluate_all(
                data, run.synthetic, phi=setting.phi,
                metrics=("density_error", "length_error"), rng=0,
            )
            out[engine] = {
                "synthesis_s_per_t": run.timings["synthesis"] / data.n_timestamps,
                **scores,
            }
        return out

    out = run_once(benchmark, run_both)
    speedup = (
        out["object"]["synthesis_s_per_t"]
        / max(out["vectorized"]["synthesis_s_per_t"], 1e-12)
    )
    save_artifact(
        "engine_speedup",
        "Synthesis engine acceleration (future-work feature)\n"
        f"  object:     {out['object']['synthesis_s_per_t']:.6f} s/timestamp  "
        f"density={out['object']['density_error']:.4f} "
        f"length={out['object']['length_error']:.4f}\n"
        f"  vectorized: {out['vectorized']['synthesis_s_per_t']:.6f} s/timestamp  "
        f"density={out['vectorized']['density_error']:.4f} "
        f"length={out['vectorized']['length_error']:.4f}\n"
        f"  speedup:    {speedup:.2f}x",
    )
    # Acceleration must not distort utility.
    assert abs(
        out["object"]["density_error"] - out["vectorized"]["density_error"]
    ) < 0.1
    # And should actually accelerate on this population size.
    assert speedup > 1.0, out


def test_batched_collection_speedup(benchmark, save_artifact):
    """ISSUE 1 acceptance: batched exact OUE >= 5x the per-user loop at 100k."""
    n_users, domain, epsilon = 100_000, 200, 1.0
    rng = np.random.default_rng(0)
    values = rng.integers(0, domain, size=n_users)

    def measure():
        out = {}
        for mode in ("exact-loop", "exact"):
            oracle = OptimizedUnaryEncoding(domain, epsilon, rng=0, mode=mode)
            tic = time.perf_counter()
            ones = oracle.simulate_ones(values)
            out[mode] = {
                "seconds": time.perf_counter() - tic,
                # Sanity: the two paths estimate the same uniform histogram.
                "mean_est": float(oracle.debias(ones, n_users).mean()),
            }
        return out

    out = run_once(benchmark, measure)
    speedup = out["exact-loop"]["seconds"] / max(out["exact"]["seconds"], 1e-12)
    save_artifact(
        "collection_speedup",
        f"Batched exact-mode OUE collection (n={n_users}, d={domain})\n"
        f"  per-user loop: {out['exact-loop']['seconds']:.3f} s   "
        f"mean est {out['exact-loop']['mean_est']:.1f}\n"
        f"  batched:       {out['exact']['seconds']:.3f} s   "
        f"mean est {out['exact']['mean_est']:.1f}\n"
        f"  speedup:       {speedup:.1f}x",
    )
    # Uniform values -> n/d per position; the position-mean estimator has
    # std ~ sqrt(n q(1-q)/d)/(p-q) ~ 43 here, so allow a few sigma.
    expected = n_users / domain
    for mode in ("exact-loop", "exact"):
        assert out[mode]["mean_est"] == pytest.approx(expected, abs=200)
    assert speedup >= 5.0, out


def _random_mobility(n_users, grid, n_rounds, rng):
    """Per-round (origin, destination) arrays for a synthetic population."""
    n_cells = grid.n_cells
    deg = np.asarray([len(grid.neighbor_lists[c]) for c in range(n_cells)])
    pad = np.zeros((n_cells, deg.max()), dtype=np.int64)
    for c in range(n_cells):
        pad[c, : deg[c]] = grid.neighbor_lists[c]
    uids = np.arange(n_users, dtype=np.int64)
    cur = rng.integers(0, n_cells, size=n_users)
    start_cells = cur.copy()
    rounds = []
    for _ in range(n_rounds):
        nxt = pad[cur, (rng.random(n_users) * deg[cur]).astype(np.int64)]
        rounds.append((cur, nxt))
        cur = nxt
    return uids, start_cells, rounds


def test_columnar_report_plane_speedup(benchmark, quick_mode, save_artifact):
    """ISSUE 2 acceptance: columnar report plane >= 3x the object path.

    Both runs drive the *same* sharded curator (persistent worker pool,
    identical seed, so identical sampled reporter sets) over identical
    mobility; only the report representation differs.  The object path
    pays what the seed pipeline paid every round — one TransitionState
    per user plus the per-user encode — while the columnar path slices
    pre-encoded index arrays.  ``--quick`` shrinks to n=10k and only
    requires the columnar path to not be slower (the CI smoke gate).
    """
    n_users = 10_000 if quick_mode else 100_000
    n_rounds = 3 if quick_mode else 4
    min_speedup = 1.0 if quick_mode else 3.0
    grid = unit_grid(6)
    data_rng = np.random.default_rng(0)
    uids, start_cells, rounds = _random_mobility(
        n_users, grid, n_rounds, data_rng
    )

    def build_curator():
        cfg = RetraSynConfig(
            epsilon=1.0, w=10, n_shards=2, shard_executor="distributed",
            engine="vectorized", seed=0, track_privacy=False,
        )
        return ShardedOnlineRetraSyn(grid, cfg, lam=10.0)

    def run_object():
        curator = build_curator()
        try:
            # t=0 (arrivals) is warm-up for both paths, untimed.
            enters = [
                (int(u), TransitionState.enter(int(c)))
                for u, c in zip(uids, start_cells)
            ]
            curator.process_timestep(0, enters, newly_entered=uids,
                                     n_real_active=1_000)
            tic = time.perf_counter()
            for i, (origins, dests) in enumerate(rounds):
                participants = [
                    (int(u), TransitionState.move(int(o), int(d)))
                    for u, o, d in zip(uids, origins, dests)
                ]
                curator.process_timestep(i + 1, participants,
                                         n_real_active=1_000)
            seconds = time.perf_counter() - tic
            reporters = sum(curator.reporters_per_timestamp[1:])
        finally:
            curator.close()
        return seconds, reporters

    def run_columnar():
        curator = build_curator()
        space = curator.space
        try:
            enter_idx = space.enter_indices[start_cells]
            batch0 = ReportBatch.from_arrays(
                uids, enter_idx, np.full(n_users, KIND_ENTER)
            )
            curator.process_timestep(0, batch0, newly_entered=uids,
                                     n_real_active=1_000)
            tic = time.perf_counter()
            for i, (origins, dests) in enumerate(rounds):
                batch = ReportBatch.from_arrays(
                    uids,
                    space.move_index_lookup(origins, dests),
                    np.full(n_users, KIND_MOVE),
                )
                curator.process_timestep(i + 1, batch, n_real_active=1_000)
            seconds = time.perf_counter() - tic
            reporters = sum(curator.reporters_per_timestamp[1:])
        finally:
            curator.close()
        return seconds, reporters

    def measure():
        obj_s, obj_reporters = run_object()
        col_s, col_reporters = run_columnar()
        # Same seed + same mobility => the two runs sample identical
        # reporter volumes; anything else means the paths diverged.
        assert obj_reporters == col_reporters, (obj_reporters, col_reporters)
        return {"object_s": obj_s, "columnar_s": col_s,
                "n_reporters": obj_reporters}

    out = run_once(benchmark, measure)
    speedup = out["object_s"] / max(out["columnar_s"], 1e-12)
    save_artifact(
        "columnar_report_plane",
        f"Columnar report plane vs object path "
        f"(n={n_users}, {n_rounds} rounds, K=2 distributed shard workers)\n"
        f"  object:   {out['object_s']:.3f} s   "
        f"({out['n_reporters']} reports collected)\n"
        f"  columnar: {out['columnar_s']:.3f} s\n"
        f"  speedup:  {speedup:.1f}x"
        + ("   [--quick smoke scale]" if quick_mode else ""),
    )
    assert speedup >= min_speedup, out


def test_spend_many_speedup(benchmark, quick_mode, save_artifact):
    """ISSUE 3 acceptance: columnar ledger >= 5x object spend_many at 100k.

    Budget-division shape: every reporter spends ε/w at every timestamp,
    keeping each window exactly full — the worst case for the dict ledger
    (every spend rescans the user's record list) and the common case for
    the ring buffer (one masked row-sum per batch).  Both ledgers must
    agree on every audit number afterwards.  A second phase replays a
    small end-to-end pipeline under both accountant modes at K=1 and K=4
    and requires bit-identical synthetic streams.
    """
    n_users = 10_000 if quick_mode else 100_000
    w, eps = 20, 1.0
    n_rounds = 8 if quick_mode else 25
    min_speedup = 1.0 if quick_mode else 5.0
    uids = np.arange(n_users, dtype=np.int64)

    def measure():
        out = {}
        for mode in ("object", "columnar"):
            acc = make_accountant(eps, w, mode=mode)
            tic = time.perf_counter()
            for t in range(n_rounds):
                acc.spend_many(uids, t, eps / w)
            out[mode] = {
                "seconds": time.perf_counter() - tic,
                "summary": acc.summary(),
            }
        # The two ledgers must reach identical audit verdicts.
        so, sc = out["object"]["summary"], out["columnar"]["summary"]
        assert so["n_users"] == sc["n_users"] == n_users
        assert so["satisfied"] and sc["satisfied"]
        assert so["max_window_spend"] == pytest.approx(sc["max_window_spend"])

        # Bit-identical pipeline output in both modes, K=1 and K=4.
        data = make_random_walks(k=4, n_streams=80, n_timestamps=12, seed=3)
        for n_shards in (1, 4):
            prints = {}
            for mode in ("object", "columnar"):
                run = RetraSyn(
                    RetraSynConfig(
                        epsilon=1.0, w=5, seed=0, n_shards=n_shards,
                        accountant_mode=mode,
                    )
                ).run(data)
                prints[mode] = [
                    (tr.start_time, list(tr.cells))
                    for tr in run.synthetic.trajectories
                ]
                assert run.accountant.verify()
            assert prints["object"] == prints["columnar"], n_shards
        return out

    out = run_once(benchmark, measure)
    speedup = out["object"]["seconds"] / max(out["columnar"]["seconds"], 1e-12)
    save_artifact(
        "accountant_speedup",
        f"Columnar privacy ledger vs dict reference "
        f"(n={n_users} reporters, w={w}, {n_rounds} rounds)\n"
        f"  object:   {out['object']['seconds']:.3f} s\n"
        f"  columnar: {out['columnar']['seconds']:.3f} s\n"
        f"  speedup:  {speedup:.1f}x   "
        f"(pipeline output bit-identical at K=1 and K=4)"
        + ("   [--quick smoke scale]" if quick_mode else ""),
    )
    assert speedup >= min_speedup, out


def test_synthesis_plane_speedup(
    benchmark, quick_mode, save_artifact, save_json_artifact
):
    """ISSUE 4 acceptance: the incremental, columnar synthesis plane.

    All engines advance the same number of live streams under identical
    per-round model churn (a DMU-shaped ``update_selected`` on ~2% of the
    state space before every step — the cadence at which the previous
    vectorized engine re-ran its O(|C|) Python compile loop).  Gates at
    full scale (100k live streams, 64x64 grid = 4096 cells):

    * ``compile_mode="incremental"`` >= 5x the object ``Synthesizer``;
    * ``compile_mode="incremental"`` >= 2x ``compile_mode="full-loop"``
      (the seed implementation's per-cell compile, i.e. the previous
      ``VectorizedSynthesizer``).

    ``--quick`` shrinks to 2k streams on a 256-cell grid and only gates
    against the object engine at >= 1x.  The measured numbers are
    persisted as ``results/BENCH_synthesis.json``.
    """
    n_streams = 2_000 if quick_mode else 100_000
    k = 16 if quick_mode else 64
    n_rounds = 3 if quick_mode else 5
    gate_vs_object = 1.0 if quick_mode else 5.0
    gate_vs_full_loop = None if quick_mode else 2.0
    grid = unit_grid(k)
    space = TransitionStateSpace(grid)
    churn = max(1, space.size // 50)

    def run_engine(make_syn):
        data_rng = np.random.default_rng(0)
        model = GlobalMobilityModel(space)
        model.set_all(data_rng.random(space.size))
        syn = make_syn(model)
        syn.spawn_from_entering(0, n_streams)
        tic = time.perf_counter()
        for t in range(1, n_rounds + 1):
            idx = data_rng.choice(space.size, size=churn, replace=False)
            model.update_selected(idx, data_rng.random(space.size))
            syn.step(t, target_size=n_streams)
        seconds = time.perf_counter() - tic
        lengths = syn.store.lengths()
        return {
            "s_per_t": seconds / n_rounds,
            "mean_length": float(lengths.mean()),
            "n_streams": int(syn.store.n_total),
        }

    def measure():
        out = {
            "object": run_engine(lambda m: Synthesizer(m, lam=10.0, rng=0)),
            "full-loop": run_engine(
                lambda m: VectorizedSynthesizer(
                    m, lam=10.0, rng=0, compile_mode="full-loop"
                )
            ),
            "incremental": run_engine(
                lambda m: VectorizedSynthesizer(
                    m, lam=10.0, rng=0, compile_mode="incremental"
                )
            ),
            "incremental+2shards": run_engine(
                lambda m: VectorizedSynthesizer(
                    m, lam=10.0, rng=0, compile_mode="incremental",
                    synthesis_shards=2,
                )
            ),
        }
        # Acceleration must not change the generative law: every engine
        # tracks the same target size and produces comparable lengths
        # (exact distribution equivalence is property-tested in
        # tests/core/test_fast_synthesis.py).
        base = out["object"]["mean_length"]
        for name, row in out.items():
            assert row["mean_length"] == pytest.approx(base, rel=0.15), name
        return out

    out = run_once(benchmark, measure)
    vs_object = out["object"]["s_per_t"] / max(out["incremental"]["s_per_t"], 1e-12)
    vs_full_loop = (
        out["full-loop"]["s_per_t"] / max(out["incremental"]["s_per_t"], 1e-12)
    )
    lines = [
        f"Synthesis plane (n={n_streams} live streams, {k}x{k} grid, "
        f"{churn}-state model churn per round)"
        + ("   [--quick smoke scale]" if quick_mode else "")
    ]
    for name in ("object", "full-loop", "incremental", "incremental+2shards"):
        lines.append(f"  {name:<20} {out[name]['s_per_t']:.6f} s/timestamp")
    lines.append(f"  speedup vs object:     {vs_object:.1f}x")
    lines.append(f"  speedup vs full-loop:  {vs_full_loop:.1f}x")
    save_artifact("synthesis_plane", "\n".join(lines))
    save_json_artifact(
        "BENCH_synthesis",
        {
            "n_streams": n_streams,
            "n_cells": grid.n_cells,
            "n_rounds": n_rounds,
            "quick": quick_mode,
            "s_per_timestamp": {
                name: row["s_per_t"] for name, row in out.items()
            },
            "speedup_vs_object": vs_object,
            "speedup_vs_full_loop": vs_full_loop,
        },
    )
    assert vs_object >= gate_vs_object, out
    if gate_vs_full_loop is not None:
        assert vs_full_loop >= gate_vs_full_loop, out


def test_sharded_collection_engine(benchmark, bench_setting, save_artifact):
    """Sharded engine: same utility as unsharded, timing reported per K."""
    setting = replace(bench_setting, scale=max(bench_setting.scale, 0.02))
    data = load_dataset("oldenburg", scale=setting.scale, seed=0)

    def run_all():
        out = {}
        for n_shards in (1, 4):
            cfg = RetraSynConfig(
                epsilon=1.0, w=setting.w, n_shards=n_shards,
                oracle_mode="exact", seed=0,
            )
            run = RetraSyn(cfg).run(data)
            scores = evaluate_all(
                data, run.synthetic, phi=setting.phi,
                metrics=("density_error", "length_error"), rng=0,
            )
            out[n_shards] = {
                "user_side_s_per_t": run.timings["user_side"] / data.n_timestamps,
                "privacy_ok": run.accountant.verify(),
                **scores,
            }
        return out

    out = run_once(benchmark, run_all)
    lines = [f"Sharded collection engine (oracle_mode=exact, {data.name})"]
    for k, row in out.items():
        lines.append(
            f"  K={k}: user_side {row['user_side_s_per_t']:.6f} s/timestamp  "
            f"density={row['density_error']:.4f} length={row['length_error']:.4f}"
        )
    save_artifact("sharded_engine", "\n".join(lines))
    for row in out.values():
        assert row["privacy_ok"]
    # Sharding must not distort utility.
    assert abs(out[1]["density_error"] - out[4]["density_error"]) < 0.1
