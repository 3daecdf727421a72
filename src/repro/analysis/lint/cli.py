"""The ``repro lint`` subcommand (exit 0 clean / 1 findings).

Usage::

    repro lint src/repro                         # default baseline lookup
    repro lint src/repro --baseline lint-baseline.json
    repro lint src/repro --rules rng-global-state,lock-scope
    repro lint src/repro --write-baseline        # grandfather the present
    repro lint --list-rules

The baseline defaults to ``lint-baseline.json`` next to the repo's
``pyproject.toml`` (falling back to the current directory); pass
``--no-baseline`` to see every finding including grandfathered ones.
Findings can additionally be written as a JSON artifact (``--out``) for
CI upload.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Optional, Sequence


def add_lint_parser(sub) -> None:
    """Declare the ``lint`` subcommand's flags; the rule engine is imported
    only when the command runs (:func:`run_lint_cli`)."""
    p = sub.add_parser(
        "lint",
        help="invariant-checking static analysis (determinism, "
             "concurrency, wire-schema discipline); exit 0 clean / "
             "1 findings",
    )
    p.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    p.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline JSON of grandfathered findings (default: "
             "lint-baseline.json beside pyproject.toml, if present)",
    )
    p.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file (report grandfathered findings too)",
    )
    p.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings to the baseline path and exit 0 "
             "(fill in per-entry justifications before committing)",
    )
    p.add_argument(
        "--rules", default=None, metavar="NAMES",
        help="comma-separated subset of rules to run",
    )
    p.add_argument(
        "--format", default="text", choices=("text", "json"),
        dest="output_format", help="report format on stdout",
    )
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write findings as a JSON artifact (for CI upload)",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )


def _default_baseline(paths: Sequence[str]) -> Optional[Path]:
    from repro.analysis.lint.engine import find_project_root

    root = find_project_root(Path(paths[0]).resolve()) if paths else None
    for candidate in filter(None, (root, Path("."))):
        path = Path(candidate) / "lint-baseline.json"
        if path.is_file():
            return path
    return None


def run_lint_cli(args) -> int:
    from repro.analysis.lint.baseline import Baseline, BaselineError
    from repro.analysis.lint.engine import run_lint
    from repro.analysis.lint.rules import all_rules

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.name:22s} [{rule.severity}] {rule.description}")
        return 0

    only = (
        [name.strip() for name in args.rules.split(",") if name.strip()]
        if args.rules else None
    )
    try:
        rules = all_rules(only)
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    baseline_path: Optional[Path]
    if args.no_baseline:
        baseline_path = None
    elif args.baseline is not None:
        baseline_path = Path(args.baseline)
    else:
        baseline_path = _default_baseline(args.paths)

    baseline = None
    if baseline_path is not None and not args.write_baseline:
        if not baseline_path.is_file():
            print(
                f"repro lint: baseline not found: {baseline_path}",
                file=sys.stderr,
            )
            return 2
        try:
            baseline = Baseline.load(baseline_path)
        except (BaselineError, json.JSONDecodeError) as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2

    result = run_lint(args.paths, rules=rules, baseline=baseline)

    if args.write_baseline:
        target = baseline_path or Path("lint-baseline.json")
        Baseline.from_findings(
            result.findings, justification="TODO: justify or fix"
        ).save(target)
        print(
            f"wrote {target} ({len(result.findings)} finding(s) "
            "grandfathered; fill in justifications)"
        )
        return 0

    payload = {
        "findings": [f.to_dict() for f in result.findings],
        "suppressed": result.suppressed,
        "baselined": result.baselined,
        "stale_baseline": result.stale_baseline,
        "n_files": result.n_files,
    }
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    if args.output_format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for finding in result.findings:
            print(finding.format())
        for stale in result.stale_baseline:
            print(f"stale baseline entry: {stale}")
        print(result.summary())
    return 0 if result.ok else 1
