"""The curator as a service: watermarked ingestion, out-of-order arrival, resume.

`repro run` hands the curator a finished dataset; a deployment receives
reports timestamp by timestamp, out of order, and must keep up. This
example replays a dataset through the ingestion front-end
(`repro.stream.ingest` / `repro.serve`) three ways:

1. in-order replay — the baseline service loop;
2. shuffled arrival within a lateness-2 reorder window — the watermark
   closes timestamps only when they are safe, and the assembler's
   canonical row order makes the synthetic output *identical* to run 1;
3. interrupted + resumed — the service checkpoints every 5 timestamps
   and stops at half the horizon; a fresh process resumes from the
   checkpoint and finishes with the same synthetic stream bit for bit.

Run:  python examples/streaming_service.py
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from repro import SessionSpec, load_dataset
from repro.serve import open_session, serve_dataset
from repro.stream.reports import ColumnarStreamView


def fingerprint(run) -> list:
    return [(t.start_time, list(t.cells)) for t in run.synthetic.trajectories]


def main() -> None:
    data = load_dataset("oldenburg", scale=0.02, seed=0)
    print(f"stream: {len(data)} users, {data.n_timestamps} timestamps\n")
    spec = SessionSpec(epsilon=1.0, w=10, n_shards=2, engine="vectorized", seed=0)

    # 1. plain in-order service replay
    in_order = serve_dataset(data, spec)
    s = in_order.stats
    print(
        f"in-order : {s.n_timestamps} timestamps, {s.n_submitted} reports, "
        f"{s.n_late_dropped} late drops"
    )

    # 2. out-of-order arrival within the watermark window
    shuffled = serve_dataset(data, replace(spec, max_lateness=2), shuffle=True)
    same = fingerprint(shuffled.run) == fingerprint(in_order.run)
    print(
        f"shuffled : {shuffled.stats.n_late_dropped} late drops, "
        f"identical synthetic stream: {same}"
    )
    assert same, "watermark reordering must not change the output"

    # 3. stop at half the horizon, resume in a "fresh process"
    half = data.n_timestamps // 2
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = replace(
            spec, transport="ingest", checkpoint_every=5,
            checkpoint_path=str(Path(tmp) / "curator.ckpt"),
        )
        # The first service instance takes one batch per timestamp, as
        # the serve replay does, and stops at half the horizon; close()
        # writes its final checkpoint there.
        first = open_session(data, ckpt)
        view = ColumnarStreamView(data, first.curator.space)
        for t in range(half):
            first.submit_batch(t, view.batch_at(t))
            first.advance()
        first.close()
        resumed = serve_dataset(data, ckpt, resume=True)
    same = fingerprint(resumed.run) == fingerprint(in_order.run)
    print(
        f"resumed  : stopped after {first.ingest_stats.n_timestamps} "
        f"timestamps, resumed from t={resumed.resumed_from_t}, identical synthetic "
        f"stream: {same}, audit "
        f"{'ok' if resumed.run.accountant.verify() else 'VIOLATED'}"
    )
    assert resumed.resumed_from_t == half
    assert same, "a resumed service must continue bit for bit"

    print("\nall three service modes agree with the batch pipeline semantics")


if __name__ == "__main__":
    main()
