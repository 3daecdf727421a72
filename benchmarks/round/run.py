#!/usr/bin/env python3
"""Round-cost benchmark: four churn workloads, measured from outside.

One run (what ``BENCHMARK.json``'s command starts)::

    python3 benchmarks/round/run.py --workload tdrive-http --seed 0 \\
        --seconds 36 --trace 0

prints, as its last line, one JSON object with the run's end-to-end
metrics (``--trace 1``: the per-layer metrics).  A run makes one pass of the
workload over its whole horizon, in a fresh process.  Without ``--workload``
the whole suite runs — every workload, interleaved across ``REPEATS``
repeats, each a run of its own — and prints every metric with unit, sample
count, median and quartiles; ``--trace`` adds a traced run per workload and
``--agreement`` runs two sets back to back and judges each metric against
its bound.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
if not (REPO / "src" / "repro").is_dir():
    sys.exit("run.py: the program under test (src/repro) is not in this checkout")
sys.path.insert(0, str(REPO / "src"))

import harness  # noqa: E402
from drivers import (  # noqa: E402
    FINGERPRINT_ROUNDS,
    gate,
    run_pass,
    run_setup,
    variant_of,
)
from workloads import WORKLOADS  # noqa: E402

#: Launches of the system per run, each in a fresh process: the measured
#: pass's own and ``SETUPS - 1`` that stop once the first report could be
#: submitted.  ``setup_s`` is their median.
SETUPS = 3
#: Runs per workload in one set of the suite.
REPEATS = 5
#: A run must end inside the driver's 180 s; children share this budget.
RUN_BUDGET_S = 170.0

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}


class RunFailed(Exception):
    """The correctness gate (or a child process) rejected the run."""


# ---------------------------------------------------------------------- #
# child processes
# ---------------------------------------------------------------------- #
def child_main(kind: str, job: dict) -> int:
    """Body of a child process: one pass, one set-up or one layer replay."""
    workload = variant_of(WORKLOADS[job["workload"]], job.get("variant", "self"))
    workdir = Path(job["workdir"])
    if kind == "pass":
        out = run_pass(
            workload, job["seed"], job["seconds"], workdir, job["started_at"],
            n_rounds=job.get("rounds"),
            spans_path=Path(job["spans"]) if job.get("spans") else None,
            extras=job.get("extras", False),
            fault=job.get("fault"),
        )
    elif kind == "setup":
        out = run_setup(workload, job["seed"], workdir, job["started_at"])
    else:
        from layers import run_replay

        out = run_replay(
            workload, job["seed"], job["rounds"], workdir, Path(job["spans"])
        )
    print(json.dumps(out))
    return 0


class Children:
    """Starts child processes one at a time and never leaves one behind."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self._n = 0

    def run(self, kind: str, **job) -> dict:
        self._n += 1
        job["workdir"] = str(self.workdir / f"{kind}{self._n}")
        Path(job["workdir"]).mkdir(parents=True)
        job["started_at"] = time.time()  # set-up time runs from here
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--child", kind,
             "--job", json.dumps(job)],
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        stdout = ""
        try:
            stdout, _ = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            pass  # killed below; reported as a failed child
        finally:
            if proc.returncode != 0:
                # Timed out, interrupted or failed.  The child leads its own
                # process group, so the served process and shard workers it
                # may have left behind die with it.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if proc.returncode != 0 or not stdout.strip():
            raise RunFailed(f"{kind} child ended with code {proc.returncode}")
        return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------- #
# one run
# ---------------------------------------------------------------------- #
def _checked(result: dict, workload, reference=None, check_ceiling=True) -> dict:
    problems = gate(result, workload, reference, check_ceiling)
    if problems:
        raise RunFailed(
            f"{workload.name}: correctness gate failed: " + "; ".join(problems)
        )
    return result


def end_to_end_run(children: Children, workload, seed, seconds, fault) -> tuple:
    """Reference identity, one measured pass, the set-ups → end-to-end metrics.

    ``seconds`` is the deadline of the pass's measured loop.  The work is
    the workload's horizon, the same on every run; a pass that cannot
    finish it in time is rejected by the gate.
    """
    reference = None
    if workload.reference:
        reference = children.run(
            "pass", workload=workload.name, variant="reference", seed=seed,
            seconds=seconds,
            rounds=FINGERPRINT_ROUNDS + workload.max_lateness + 2,
        )
    result = _checked(
        children.run(
            "pass", workload=workload.name, seed=seed, seconds=seconds, fault=fault
        ),
        workload, reference,
    )
    setups = [result["setup_s"]] + [
        children.run("setup", workload=workload.name, seed=seed)["setup_s"]
        for _ in range(SETUPS - 1)
    ]
    metrics = {
        "setup_s": statistics.median(setups),
        "round_ms_p50": harness.percentile(result["round_ms"], 50),
        "round_ms_p95": harness.percentile(result["round_ms"], 95),
        "peak_rss_mb": max(result["peak_rss_mb"].values()),
    }
    # reports_per_s is computed and printed but carries no bound: it is a
    # mean over every call, so it carries each growth stall and each second
    # of host interference, and BENCHMARK.json lists it per layer.
    reports_per_s = result["n_reports"] / result["call_seconds"]
    detail = {
        "seed": seed,
        "reports_per_s": reports_per_s,
        "setups_s": setups,
        "round_samples": len(result["round_ms"]),
        "failed_share": harness.failed_share(result["failed"], result["attempted"]),
        "pass": {
            k: v for k, v in result.items() if k not in ("round_ms", "fingerprints")
        },
    }
    return metrics, result["attempted"], result["failed"], detail


def traced_run(children: Children, workload, seed, seconds) -> tuple:
    """Untraced + traced + baseline passes and the layer replay → ledger."""
    rounds = workload.shape.n_rounds
    spans_dir = HERE / ".work" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{seed}"
    driver_spans = spans_dir / f"{stem}-driver.jsonl"
    layer_spans = spans_dir / f"{stem}-layers.jsonl"
    in_process = workload.boundary == "session"

    def one_pass(variant: str, **job) -> dict:
        return _checked(
            children.run(
                "pass", workload=workload.name, variant=variant, seed=seed,
                seconds=seconds, **job,
            ),
            variant_of(workload, variant), check_ceiling=False,
        )

    untraced = one_pass("self")
    traced = one_pass("self", spans=str(driver_spans), extras=in_process)
    if variant_of(workload, "baseline") == workload:
        baseline = untraced
    else:
        baseline = one_pass("baseline", extras=not in_process)
    replay = children.run(
        "replay", workload=workload.name, seed=seed, rounds=rounds,
        spans=str(layer_spans),
    )

    from layers import ledger

    metrics, detail = ledger(
        workload, untraced, traced, baseline, replay, driver_spans
    )
    detail["spans"] = {"driver": str(driver_spans), "layers": str(layer_spans)}
    attempted = untraced["attempted"] + traced["attempted"]
    failed = untraced["failed"] + traced["failed"]
    return metrics, attempted, failed, detail


def single_run(args) -> int:
    """The driver's contract: one workload, one seed, one JSON line."""
    workload = WORKLOADS[args.workload]
    workdir = HERE / ".work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    children = Children(workdir)
    try:
        if args.trace:
            metrics, attempted, failed, detail = traced_run(
                children, workload, args.seed, args.seconds
            )
            units = PER_LAYER
        else:
            metrics, attempted, failed, detail = end_to_end_run(
                children, workload, args.seed, args.seconds, args.fault
            )
            units = END_TO_END
    except (RunFailed, harness.InsufficientSamples) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = set(units) - set(metrics)
    if missing:
        print(f"run.py: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]["unit"]}
                    for name in units
                },
            }
        )
    )
    return 0


# ---------------------------------------------------------------------- #
# the suite
# ---------------------------------------------------------------------- #
def _invoke(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run in a fresh process, exactly as the driver starts it."""
    detail_path = HERE / ".work" / f"detail-{os.getpid()}.json"
    detail_path.parent.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--detail", str(detail_path)],
        stdout=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise RunFailed(
            f"{workload} seed {seed} trace {trace}: exit {proc.returncode}"
        )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    line["detail"] = json.loads(detail_path.read_text())
    detail_path.unlink()
    return line


def run_set(args, label: str) -> dict:
    """``REPEATS`` runs of every workload, workloads interleaved."""
    runs: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    for repeat in range(REPEATS):
        for name in WORKLOADS:
            tic = time.monotonic()
            run = _invoke(name, args.seed + repeat, args.seconds, 0)
            runs[name].append(run)
            print(
                f"[{label}] repeat {repeat + 1}/{REPEATS} {name} "
                f"seed {args.seed + repeat}: {time.monotonic() - tic:.1f} s",
                file=sys.stderr,
            )
    return runs


def summarise(runs: dict) -> dict:
    """Per workload × metric: unit, every raw value, median and quartiles."""
    out: dict = {}
    for name, workload_runs in runs.items():
        rows = {}
        for metric, meta in END_TO_END.items():
            values = [r["metrics"][metric]["value"] for r in workload_runs]
            q1, med, q3 = harness.quartiles(values)
            rows[metric] = {
                "unit": meta["unit"], "n_runs": len(values), "values": values,
                "median": med, "q1": q1, "q3": q3,
                "spread": harness.spread(values), "bound": meta["bound"],
                "resolved": harness.spread(values) <= meta["bound"],
            }
        values = [r["detail"]["reports_per_s"] for r in workload_runs]
        q1, med, q3 = harness.quartiles(values)
        rows["reports_per_s"] = {
            "unit": "1/s", "n_runs": len(values), "values": values,
            "median": med, "q1": q1, "q3": q3, "spread": harness.spread(values),
        }
        attempted = sum(r["attempted"] for r in workload_runs)
        failed = sum(r["failed"] for r in workload_runs)
        rows["failed_share"] = {
            "unit": "share", "attempted": attempted, "failed": failed,
            "median": harness.failed_share(failed, attempted),
        }
        out[name] = {
            "metrics": rows,
            "round_samples": [r["detail"]["round_samples"] for r in workload_runs],
            "seeds": [r["detail"]["seed"] for r in workload_runs],
        }
    return out


def print_summary(summary: dict) -> None:
    for name, block in summary.items():
        print(f"\n{name} — {WORKLOADS[name].why}")
        print(
            f"  closing rounds sampled per run (t >= w): "
            f"{min(block['round_samples'])}..{max(block['round_samples'])}; "
            f"seeds {block['seeds']}"
        )
        for metric, row in block["metrics"].items():
            if metric == "failed_share":
                print(
                    f"  {metric:<14} {row['median']:.6f} share "
                    f"({row['failed']} failed of {row['attempted']} calls)"
                )
                continue
            if "bound" not in row:
                note = "reported, no bound"
            elif row["resolved"]:
                note = f"bound {row['bound']:.0%}"
            else:
                note = f"bound {row['bound']:.0%}  UNRESOLVED: spread > bound"
            print(
                f"  {metric:<14} median {row['median']:>12.4f} {row['unit']:<4}"
                f" q1 {row['q1']:.4f} q3 {row['q3']:.4f} n={row['n_runs']}"
                f" spread {row['spread']:.2%} {note}"
            )


def print_agreement(first: dict, second: dict) -> bool:
    """Two sets of the same code, metric by metric; True when none disagrees."""
    fine = True
    print("\nagreement of two sets of runs of the same code")
    for name in first:
        for metric, meta in END_TO_END.items():
            verdict = harness.agreement(
                first[name]["metrics"][metric]["values"],
                second[name]["metrics"][metric]["values"],
                meta["bound"], meta["better"],
            )
            fine &= verdict["verdict"] != "disagrees"
            print(
                f"  {name:<18} {metric:<14} "
                f"{verdict['first_median']:.4f} (IQR {verdict['first_iqr']:.4f})"
                f" vs {verdict['second_median']:.4f} "
                f"(IQR {verdict['second_iqr']:.4f}) {meta['unit']}: second is "
                f"{abs(verdict['difference']):.2%} "
                f"{'worse' if verdict['difference'] > 0 else 'better'}, "
                f"bound {meta['bound']:.0%} -> {verdict['verdict']}"
            )
    return fine


def suite(args) -> int:
    document = {
        "provenance": harness.provenance(REPO),
        "seed": args.seed, "repeats": REPEATS, "run_seconds": args.seconds,
    }
    try:
        first = summarise(run_set(args, "set 1"))
        document["end_to_end"] = first
        print_summary(first)
        fine = True
        if args.agreement:
            second = summarise(run_set(args, "set 2"))
            document["second_set"] = second
            fine = print_agreement(first, second)
        if args.trace:
            document["per_layer"] = {}
            for name in WORKLOADS:
                run = _invoke(name, args.seed, args.seconds, 1)
                document["per_layer"][name] = run
                print(f"\n{name} — per-layer ledger (traced run, seed {args.seed})")
                for metric, value in run["metrics"].items():
                    print(f"  {metric:<44} {value['value']:>14.4f} {value['unit']}")
                detail = run["detail"]
                print(f"  round_ms_p50 of the passes: {detail['round_ms_p50']}")
                print(f"  layers on this workload's path: {detail['layers_on_path']}")
                print(
                    "  the program's own phase counters, ms per round: "
                    f"{detail['program_ms_per_round']}"
                )
                print(f"  spans: {detail['spans']}")
    except RunFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1))
        print(f"\nwrote {args.out}")
    unresolved = [
        f"{name}/{metric}"
        for name, block in first.items()
        for metric, row in block["metrics"].items()
        if not row.get("resolved", True)
    ]
    if unresolved:
        print(f"\nunresolved (spread above bound): {', '.join(unresolved)}")
    return 0 if fine else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload once and print one JSON line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"],
                        help="deadline of a pass's measured loop")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer ledger (traced run)")
    parser.add_argument("--agreement", action="store_true",
                        help="suite: two sets back to back, judged per metric")
    parser.add_argument("--out", help="suite: write the full JSON document here")
    parser.add_argument("--detail", help="single run: write its detail JSON here")
    parser.add_argument("--fault", choices=("corrupt-snapshot", "refuse-spend"),
                        help="inject a defect (tests of the correctness gate)")
    parser.add_argument("--child", choices=("pass", "setup", "replay"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--job", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args.child, json.loads(args.job))
    if args.workload:
        return single_run(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
