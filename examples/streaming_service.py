"""The curator as a service: async ingestion, backpressure, resume.

`repro run` hands the curator a finished dataset; a deployment receives
reports one at a time, out of order, and must keep up. This example
replays a dataset through the async ingestion front-end
(`repro.stream.ingest` / `repro.serve`) three ways:

1. in-order replay — the baseline service loop;
2. shuffled arrival within a 2-timestamp reorder window — the watermark
   closes timestamps only when they are safe, and the assembler's
   canonical row order makes the synthetic output *identical* to run 1;
3. interrupted + resumed — the service checkpoints every 5 timestamps,
   is killed halfway, and a fresh process resumes from the checkpoint,
   finishing with the same synthetic stream bit for bit.

Run:  python examples/streaming_service.py
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from repro import SessionSpec, load_dataset
from repro.serve import serve_dataset


def fingerprint(run) -> list:
    return [(t.start_time, list(t.cells)) for t in run.synthetic.trajectories]


def main() -> None:
    data = load_dataset("oldenburg", scale=0.02, seed=0)
    print(f"stream: {len(data)} users, {data.n_timestamps} timestamps\n")
    spec = SessionSpec(
        epsilon=1.0, w=10, n_shards=2, engine="vectorized", seed=0,
        queue_size=512,
    )

    # 1. plain in-order service replay
    in_order = serve_dataset(data, spec)
    s = in_order.stats
    print(
        f"in-order : {s.n_timestamps} timestamps, {s.n_submitted} reports, "
        f"{s.backpressure_waits} backpressure waits"
    )

    # 2. out-of-order arrival within the watermark window
    shuffled = serve_dataset(data, replace(spec, max_lateness=2), shuffle=True)
    same = fingerprint(shuffled.run) == fingerprint(in_order.run)
    print(
        f"shuffled : {shuffled.stats.n_late_dropped} late drops, "
        f"identical synthetic stream: {same}"
    )
    assert same, "watermark reordering must not change the output"

    # 3. checkpoint halfway, resume in a "fresh process"
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = replace(
            spec, checkpoint_path=str(Path(tmp) / "curator.ckpt"),
            checkpoint_every=5,
        )
        serve_dataset(data, ckpt)
        resumed = serve_dataset(data, ckpt, resume=True)
        print(
            f"resumed  : from t={resumed.resumed_from_t}, audit "
            f"{'ok' if resumed.run.accountant.verify() else 'VIOLATED'}"
        )

    print("\nall three service modes agree with the batch pipeline semantics")


if __name__ == "__main__":
    main()
