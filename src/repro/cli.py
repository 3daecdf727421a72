"""Command-line interface.

Usage (after installing the package)::

    python -m repro datasets generate --name tdrive --scale 0.05 --out td.npz
    python -m repro datasets stats td.npz
    python -m repro run --method RetraSyn_p --input td.npz --epsilon 1.0 \
        --w 20 --out syn.npz
    python -m repro evaluate td.npz syn.npz --phi 10
    python -m repro experiment table3 --scale 0.02

Every command is deterministic under ``--seed``.  Each command imports its
modules when it runs, so ``repro serve`` never loads the evaluation,
experiment or lint code.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from repro.datasets.io import load_stream_dataset, save_stream_dataset
from repro.datasets.registry import available_datasets, load_dataset


def _add_datasets_parser(sub) -> None:
    p = sub.add_parser("datasets", help="generate or inspect datasets")
    inner = p.add_subparsers(dest="datasets_cmd", required=True)

    gen = inner.add_parser("generate", help="generate one of the paper's datasets")
    gen.add_argument("--name", required=True, choices=available_datasets())
    gen.add_argument("--scale", type=float, default=0.05)
    gen.add_argument("--k", type=int, default=6)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output .npz path")

    stats = inner.add_parser("stats", help="print Table I-style statistics")
    stats.add_argument("path", help="dataset .npz path")

    listing = inner.add_parser("list", help="list generatable dataset names")
    del listing  # no extra arguments


def _flag_dest(flag: str) -> str:
    """argparse destination of a ``--flag-name`` (its default derivation)."""
    return flag.lstrip("-").replace("-", "_")


def _add_spec_flag_group(parser, service=False, defaults=None) -> None:
    """One shared engine (or, with ``service``, service) flag block,
    generated from the spec.

    Every flag is derived from the ``metadata["cli"]`` entry of a
    :class:`~repro.api.specs.SessionSpec` field, so ``repro run`` and
    ``repro serve`` expose the *same* block and a new config field cannot
    silently miss (or drift from) its CLI flag.  ``defaults`` overrides
    per-command defaults (e.g. serve prefers the vectorized engine).
    """
    from repro.api.specs import iter_cli_fields

    defaults = defaults or {}
    group = parser.add_argument_group(
        "session configuration (generated from repro.api.specs)"
    )
    for f in iter_cli_fields(service):
        meta = f.metadata["cli"]
        default = defaults.get(f.name, f.default)
        if meta["store_true"]:
            group.add_argument(meta["flag"], action="store_true",
                               help=meta["help"])
            continue
        add_kwargs = {"default": default, "help": meta["help"]}
        if meta["choices"] is not None:
            add_kwargs["choices"] = meta["choices"]
        if meta["type"] is not None:
            add_kwargs["type"] = meta["type"]
        group.add_argument(meta["flag"], **add_kwargs)


def _spec_kwargs_from_args(args, service=False) -> dict:
    """Spec-field dict collected from a parsed spec flag group."""
    from repro.api.specs import iter_cli_fields

    return {
        f.name: getattr(args, _flag_dest(f.metadata["cli"]["flag"]))
        for f in iter_cli_fields(service)
    }


def _add_run_parser(sub) -> None:
    p = sub.add_parser("run", help="run a synthesis method over a dataset")
    p.add_argument(
        "--method",
        default="RetraSyn_p",
        help="RetraSyn_b/RetraSyn_p/AllUpdate_*/NoEQ_*/LBD/LBA/LPD/LPA",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="dataset .npz path")
    src.add_argument("--dataset", choices=available_datasets(), help="generate fresh")
    p.add_argument("--scale", type=float, default=0.05, help="with --dataset")
    _add_spec_flag_group(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="synthetic output .npz path")
    p.add_argument("--no-audit", action="store_true",
                   help="skip the privacy-ledger audit (faster)")


def _add_serve_parser(sub) -> None:
    p = sub.add_parser(
        "serve",
        help="replay a dataset through the ingestion service "
             "(watermarks, checkpoints), or — with --http — "
             "listen for remote repro.api.Client submissions",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="dataset .npz path")
    src.add_argument("--dataset", choices=available_datasets(), help="generate fresh")
    p.add_argument("--scale", type=float, default=0.05, help="with --dataset")
    p.add_argument("--division", default="population",
                   choices=("population", "budget"),
                   help="privacy division style (run derives this from "
                        "--method; serve takes it directly)")
    _add_spec_flag_group(p, defaults={"engine": "vectorized"})
    _add_spec_flag_group(p, service=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shuffle", action="store_true",
                   help="shuffle arrival order inside the lateness window")
    p.add_argument("--resume", action="store_true",
                   help="resume from --checkpoint instead of starting fresh")
    p.add_argument("--http", type=int, default=None, metavar="PORT",
                   help="serve the versioned HTTP ingress on PORT "
                        "(0 = ephemeral) instead of replaying the dataset; "
                        "drive it with repro.api.Client")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address for --http")
    p.add_argument("--out", default=None, help="synthetic output .npz path")
    p.add_argument("--no-audit", action="store_true")


def _add_evaluate_parser(sub) -> None:
    p = sub.add_parser("evaluate", help="score a synthetic DB against the real one")
    p.add_argument("real", help="real dataset .npz")
    p.add_argument("synthetic", help="synthetic dataset .npz")
    p.add_argument("--phi", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)


def _add_experiment_parser(sub) -> None:
    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument(
        "artifact",
        choices=(
            "table3", "table4", "table5",
            "fig3", "fig4", "fig5", "fig6", "fig7",
            "historical",
        ),
    )
    p.add_argument("--scale", type=float, default=0.02)
    p.add_argument("--w", type=int, default=10)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--datasets", nargs="+", default=None)


def _add_lint_parser(sub) -> None:
    from repro.analysis.lint.cli import add_lint_parser

    add_lint_parser(sub)


def _add_plan_parser(sub) -> None:
    p = sub.add_parser(
        "plan", help="predict noise/SNR for a deployment configuration"
    )
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--w", type=int, default=20)
    p.add_argument("--n-active", type=int, default=10_000)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--division", choices=("population", "budget"),
                   default="population")
    p.add_argument("--portion", type=float, default=0.05)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RetraSyn: LDP real-time trajectory synthesis (ICDE 2024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_datasets_parser(sub)
    _add_run_parser(sub)
    _add_serve_parser(sub)
    _add_evaluate_parser(sub)
    _add_experiment_parser(sub)
    _add_plan_parser(sub)
    _add_lint_parser(sub)
    return parser


# ---------------------------------------------------------------------- #
# command implementations
# ---------------------------------------------------------------------- #
def _cmd_datasets(args) -> int:
    if args.datasets_cmd == "list":
        for name in available_datasets():
            print(name)
        return 0
    if args.datasets_cmd == "generate":
        data = load_dataset(args.name, scale=args.scale, k=args.k, seed=args.seed)
        save_stream_dataset(data, args.out)
        print(f"wrote {args.out}: {data.stats()}")
        return 0
    if args.datasets_cmd == "stats":
        data = load_stream_dataset(args.path)
        for key, value in data.stats().items():
            print(f"{key:16s} {value}")
        return 0
    return 2


def _cmd_run(args) -> int:
    from repro.experiments.runner import make_method

    if args.input:
        data = load_stream_dataset(args.input)
    else:
        data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    flat = _spec_kwargs_from_args(args)
    epsilon, w = flat.pop("epsilon"), flat.pop("w")
    allocator = flat.pop("allocator")
    overrides = {"track_privacy": not args.no_audit}
    if args.method.lower() not in ("lbd", "lba", "lpd", "lpa"):
        # Baselines take only the shared privacy knobs; engine and sharding flags
        # apply to the RetraSyn variants.
        overrides.update(flat)
    algo = make_method(
        args.method,
        epsilon=epsilon,
        w=w,
        seed=args.seed,
        allocator=allocator,
        **overrides,
    )
    run = algo.run(data)
    save_stream_dataset(run.synthetic, args.out)
    print(f"wrote {args.out}: {run.synthetic.stats()}")
    return _audit_exit_code(run.accountant)


def _cmd_serve(args) -> int:
    from repro.api.specs import SessionSpec
    from repro.serve import serve_dataset

    if args.input:
        data = load_stream_dataset(args.input)
    else:
        data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    spec = SessionSpec(
        **_spec_kwargs_from_args(args),
        **_spec_kwargs_from_args(args, service=True),
        division=args.division,
        track_privacy=not args.no_audit,
        seed=args.seed,
        transport="ingest",
    )
    if args.http is not None:
        return _serve_http(args, data, spec)
    outcome = serve_dataset(
        data, spec,
        shuffle=args.shuffle, shuffle_seed=args.seed, resume=args.resume,
    )
    for line in outcome.report_lines():
        print(line)
    if args.out:
        save_stream_dataset(outcome.run.synthetic, args.out)
        print(f"wrote {args.out}: {outcome.run.synthetic.stats()}")
    return _audit_exit_code(outcome.run.accountant)


def _serve_http(args, data, spec) -> int:
    """`repro serve --http PORT`: the network ingress in front of a session.

    The dataset supplies the grid geometry and the λ estimate; the stream
    itself comes from remote :class:`repro.api.Client` submissions.  Runs
    until a client posts ``/v1/shutdown``, then reports and (optionally)
    writes the synthetic output; a drain that outlives ``--drain-deadline``
    exits 1 instead.
    """
    from repro.api import schema
    from repro.api.http import serve_http
    from repro.serve import open_session

    spec = dataclasses.replace(spec, http_host=args.host, http_port=args.http)
    session = open_session(data, spec, resume=args.resume)
    if args.resume:
        last_t = session.curator._last_t
        print(f"resumed at t={0 if last_t is None else last_t + 1}", flush=True)
    ingress = serve_http(
        session,
        host=spec.http_host,
        port=spec.http_port,
        on_ready=lambda s: print(
            f"listening on http://{s.host}:{s.port} "
            f"(schema v{schema.SCHEMA_VERSION}, RSF2 frames); "
            f"POST /v1/shutdown to stop", flush=True,
        ),
    )
    if ingress.drain_expired:
        # The session is still closing on another thread: read nothing
        # from it.  The last complete checkpoint is what a resume reads.
        print(
            f"ERROR: drain deadline of {spec.drain_deadline:g}s expired before "
            "the session closed; the last complete checkpoint stands",
            file=sys.stderr,
        )
        return 1
    session = ingress.session
    stats = session.stats()
    print(f"timestamps processed   {stats['n_timestamps']}")
    if "ingest" in stats:
        print(f"reports ingested       {stats['ingest']['n_submitted']}")
        print(f"late reports dropped   {stats['ingest']['n_late_dropped']}")
    if args.out:
        # The synthetic database is built only to be written.
        run = session.result(name=f"{session.curator.config.label}(http:{data.name})")
        save_stream_dataset(run.synthetic, args.out)
        print(f"wrote {args.out}: {run.synthetic.stats()}")
    return _audit_exit_code(session.curator.accountant)


def _audit_exit_code(accountant) -> int:
    """Shared privacy-audit epilogue of run/serve: prints ``accountant``'s
    summary (none without an audit) and fails on a violated guarantee."""
    if accountant is not None:
        summary = accountant.summary()
        print(f"privacy audit: {summary}")
        if not summary["satisfied"]:
            print("ERROR: w-event LDP guarantee violated", file=sys.stderr)
            return 1
    return 0


def _cmd_evaluate(args) -> int:
    from repro.analysis.comparison import fidelity_report, format_fidelity_report

    real = load_stream_dataset(args.real)
    syn = load_stream_dataset(args.synthetic)
    report = fidelity_report(real, syn, phi=args.phi, rng=args.seed)
    print(format_fidelity_report(report))
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments.runner import ExperimentSetting

    setting = ExperimentSetting(
        scale=args.scale, w=args.w, k=args.k, seed=args.seed
    )
    datasets = tuple(args.datasets) if args.datasets else None
    if args.artifact == "table3":
        from repro.experiments.table3 import format_table3, run_table3

        print(format_table3(run_table3(setting, datasets=datasets)))
    elif args.artifact == "table4":
        from repro.experiments.table4 import format_table4, run_table4

        print(format_table4(run_table4(setting, datasets=datasets)))
    elif args.artifact == "table5":
        from repro.experiments.table5 import format_table5, run_table5

        print(format_table5(run_table5(setting, datasets=datasets)))
    elif args.artifact == "fig3":
        from repro.experiments.fig3 import format_fig3, run_fig3

        print(format_fig3(run_fig3(setting, datasets=datasets or ("tdrive", "oldenburg"))))
    elif args.artifact == "fig4":
        from repro.experiments.fig4 import format_fig4, run_fig4

        print(format_fig4(run_fig4(setting, datasets=datasets or ("tdrive", "oldenburg"))))
    elif args.artifact == "fig5":
        from repro.experiments.fig5 import format_fig5, run_fig5

        print(format_fig5(run_fig5(setting, datasets=datasets or ("tdrive", "oldenburg"))))
    elif args.artifact == "fig6":
        from repro.experiments.fig6 import format_fig6, run_fig6

        print(format_fig6(run_fig6(setting, datasets=datasets)))
    elif args.artifact == "fig7":
        from repro.experiments.fig7 import format_fig7, run_fig7

        print(format_fig7(run_fig7(setting, datasets=datasets)))
    elif args.artifact == "historical":
        from repro.experiments.historical import format_historical, run_historical

        print(format_historical(run_historical(setting, datasets=datasets or ("tdrive",))))
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.lint.cli import run_lint_cli

    return run_lint_cli(args)


def _cmd_plan(args) -> int:
    from repro.planning import DeploymentPlan, format_plan_report, plan_report

    plan = DeploymentPlan(
        epsilon=args.epsilon,
        w=args.w,
        n_active=args.n_active,
        k=args.k,
        division=args.division,
        portion=args.portion,
    )
    print(format_plan_report(plan_report(plan)))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "run": _cmd_run,
        "serve": _cmd_serve,
        "evaluate": _cmd_evaluate,
        "experiment": _cmd_experiment,
        "plan": _cmd_plan,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
