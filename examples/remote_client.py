"""Remote curation over the HTTP ingress.

A deployment runs the curator behind `repro serve --http PORT`; report
producers anywhere on the network drive it with `repro.api.Client`,
speaking RSF2 binary frames (arrays travel as raw little-endian buffers
in the columnar `ReportBatch` format — no pickle on the wire).

This example boots the ingress in-process (a background thread running
the same `HttpIngress` the CLI uses), replays a dataset through a
`Client`, and verifies the remote synthetic stream is *bit-identical*
to an equivalent in-process run — the property that makes local and
remote deployments interchangeable.

Run:  python examples/remote_client.py
"""

import asyncio
import threading

from repro import Client, SessionSpec, load_dataset
from repro.api.http import HttpIngress
from repro.api.session import create_session
from repro.geo.trajectory import average_length
from repro.stream.reports import ColumnarStreamView
from repro.stream.state_space import TransitionStateSpace


def start_server(session) -> HttpIngress:
    """The ingress on a daemon thread; returns once the socket is bound."""
    ingress = HttpIngress(session)  # port 0 = ephemeral
    ready = threading.Event()

    def run() -> None:
        async def main() -> None:
            await ingress.start()
            ready.set()
            await ingress.serve_until_shutdown()

        asyncio.run(main())

    threading.Thread(target=run, daemon=True).start()
    ready.wait(10)
    return ingress


def main() -> None:
    data = load_dataset("oldenburg", scale=0.02, seed=0)
    lam = max(1.0, average_length(data.trajectories))
    print(f"stream: {len(data)} users, {data.n_timestamps} timestamps")

    spec = SessionSpec(epsilon=1.0, w=10, seed=0, transport="ingest")
    ingress = start_server(create_session(spec, data.grid, lam=lam))
    print(f"ingress listening on http://{ingress.host}:{ingress.port}\n")

    # --- the remote side: everything below only talks HTTP ------------- #
    client = Client(ingress.host, ingress.port)
    hello = client.hello()
    print(f"schema v{hello['schema']}, method {hello['label']}")

    space = TransitionStateSpace(
        client.grid(), include_entering_quitting=hello["include_eq"]
    )
    view = ColumnarStreamView(data, space)
    for t in range(data.n_timestamps):
        client.submit_batch(
            t,
            view.batch_at(t),
            newly_entered=view.newly_entered_at(t),
            quitted=view.quitted_at(t),
            n_real_active=view.n_active_at(t),
        )
        if t % 10 == 0:
            print(f"t={t:3d}  live synthetic streams: {client.snapshot().size}")

    client.close()
    remote = client.result()
    stats = client.stats()
    print(f"\nserver processed {stats['n_timestamps']} timestamps, "
          f"audit satisfied: {stats['privacy']['satisfied']}")
    client.shutdown_server()

    # --- the proof: remote == equivalent in-process session, bit for bit #
    local = create_session(spec, data.grid, lam=lam)
    local_view = ColumnarStreamView(data, local.curator.space)
    for t in range(data.n_timestamps):
        local.submit_batch(
            t,
            local_view.batch_at(t),
            newly_entered=local_view.newly_entered_at(t),
            quitted=local_view.quitted_at(t),
            n_real_active=local_view.n_active_at(t),
        )
        local.advance()
    local.close()
    local_run = local.result(data.n_timestamps)
    identical = [(t.start_time, list(t.cells)) for t in remote] == [
        (t.start_time, list(t.cells)) for t in local_run.synthetic
    ]
    print(f"remote synthetic == in-process session synthetic: {identical}")
    assert identical


if __name__ == "__main__":
    main()
