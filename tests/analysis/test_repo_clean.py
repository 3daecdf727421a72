"""Tier-1 gate: the shipped tree lints clean against its own analyzer.

This is the test that makes ``repro lint`` part of the repo's contract:
every rule runs over ``src/repro`` with the committed baseline, and any
new violation — a global RNG draw in ``core/``, an orphan wire verb —
fails the default pytest tier, not just the separate CI job.  One plain
AST check rides along: nothing under ``src/repro`` imports ``pickle``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis.lint import Baseline, all_rules, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "lint-baseline.json"


@pytest.fixture(scope="module")
def result():
    if not SRC.is_dir():  # running from an installed package, not a checkout
        pytest.skip("source tree not available")
    baseline = Baseline.load(BASELINE) if BASELINE.is_file() else None
    return run_lint([SRC], rules=all_rules(), baseline=baseline)


def test_tree_has_no_findings(result):
    assert result.ok, "\n" + "\n".join(f.format() for f in result.findings)


def test_baseline_has_no_stale_entries(result):
    assert not result.stale_baseline, "\n".join(result.stale_baseline)


def test_every_baseline_entry_is_justified():
    if not BASELINE.is_file():
        pytest.skip("no committed baseline")
    for entry in Baseline.load(BASELINE).entries:
        assert entry.justification.strip(), (
            f"{entry.path}: {entry.rule}: baseline entry for "
            f"{entry.code!r} carries no justification"
        )
        assert "TODO" not in entry.justification, (
            f"{entry.path}: unfinished justification"
        )


def test_whole_tree_was_scanned(result):
    # Guards against the scan silently narrowing (path typo, glob change).
    assert result.n_files > 80


def test_no_module_imports_pickle():
    """Checkpoints and the shard handoff are declared RSF2 frames, so no
    decoder can run code from a file or a peer."""
    if not SRC.is_dir():
        pytest.skip("source tree not available")
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = (
                [alias.name for alias in node.names]
                if isinstance(node, ast.Import)
                else [node.module or ""] if isinstance(node, ast.ImportFrom)
                else []
            )
            if any(name.split(".")[0] in ("pickle", "cPickle") for name in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, offenders
