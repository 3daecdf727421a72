"""Exit-code and artifact contract of the ``repro lint`` subcommand."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main


CLEAN = "import numpy as np\nrng = np.random.default_rng(7)\n"
DIRTY = "import random\nx = random.random()\n"


def make_tree(tmp_path: Path, source: str) -> Path:
    root = tmp_path / "tree"
    (root / "core").mkdir(parents=True)
    (root / "core" / "x.py").write_text(source, encoding="utf-8")
    return root


def test_clean_tree_exits_zero(tmp_path, capsys):
    root = make_tree(tmp_path, CLEAN)
    assert main(["lint", str(root), "--no-baseline"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_findings_exit_one_with_location(tmp_path, capsys):
    root = make_tree(tmp_path, DIRTY)
    assert main(["lint", str(root), "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "rng-global-state" in out
    assert "x.py:2" in out


def test_write_baseline_then_lint_is_clean(tmp_path, monkeypatch, capsys):
    root = make_tree(tmp_path, DIRTY)
    monkeypatch.chdir(tmp_path)
    assert main(["lint", str(root), "--write-baseline"]) == 0
    baseline = tmp_path / "lint-baseline.json"
    assert baseline.is_file()
    assert (
        main(["lint", str(root), "--baseline", str(baseline)]) == 0
    )
    out = capsys.readouterr().out
    assert "1 baselined" in out


def test_missing_explicit_baseline_is_usage_error(tmp_path):
    root = make_tree(tmp_path, CLEAN)
    assert (
        main(["lint", str(root), "--baseline", str(tmp_path / "nope.json")])
        == 2
    )


def test_unknown_rule_is_usage_error(tmp_path):
    root = make_tree(tmp_path, CLEAN)
    assert main(["lint", str(root), "--rules", "no-such-rule"]) == 2


def test_rules_subset_runs_only_those(tmp_path, capsys):
    root = make_tree(tmp_path, DIRTY)
    assert (
        main(["lint", str(root), "--no-baseline", "--rules", "wall-clock"])
        == 0
    )


def test_list_rules_prints_catalog(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in (
        "rng-global-state", "wall-clock", "set-iteration",
        "lock-scope", "schema-orphan-verb",
        "spec-flag-drift", "metric-name",
    ):
        assert name in out


def test_json_artifact_written_for_ci(tmp_path, capsys):
    root = make_tree(tmp_path, DIRTY)
    artifact = tmp_path / "out" / "findings.json"
    code = main([
        "lint", str(root), "--no-baseline",
        "--format", "json", "--out", str(artifact),
    ])
    assert code == 1
    payload = json.loads(artifact.read_text())
    assert payload["findings"][0]["rule"] == "rng-global-state"
    assert payload["findings"][0]["pkg_path"] == "core/x.py"
    # stdout carries the same payload in --format json
    assert json.loads(capsys.readouterr().out)["n_files"] == 1
