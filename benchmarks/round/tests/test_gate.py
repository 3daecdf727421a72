"""The correctness gate: defects must stop a run from printing metrics."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest
from drivers import gate, variant_of
from workloads import WORKLOADS

RUN_PY = Path(__file__).resolve().parents[1] / "run.py"

GOOD = {
    "ok": True, "attempted": 10, "failed": 0, "privacy_satisfied": True,
    "max_window_spend": 1.0, "snapshot_len_mismatches": 0, "late_dropped": 0,
    "horizon": 5, "n_rounds_driven": 5, "n_rounds_closed": 5, "jsd_mean": 0.2,
    "fingerprints": ["a", "b", "c"],
}
REFERENCE = {"ok": True, "fingerprints": ["a", "b", "c"]}


def test_a_clean_pass_goes_through():
    assert gate(GOOD, WORKLOADS["tdrive-shards"], REFERENCE) == []


@pytest.mark.parametrize(
    "field, value, needle",
    [
        ("failed", 1, "boundary calls failed"),
        ("privacy_satisfied", False, "satisfied"),
        ("max_window_spend", 1.01, "max_window_spend"),
        ("snapshot_len_mismatches", 2, "n_real_active"),
        ("late_dropped", 7, "late"),
        ("n_rounds_driven", 4, "budget was spent after 4 of 5 rounds"),
        ("n_rounds_closed", 0, "no round closed"),
        ("jsd_mean", 0.99, "ceiling"),
        ("fingerprints", ["a", "x", "c"], "diverge from the reference at round 1"),
        ("fingerprints", ["a"], "only 1 of the reference's first 3 rounds"),
    ],
)
def test_each_defect_is_named(field, value, needle):
    broken = copy.deepcopy(GOOD)
    broken[field] = value
    problems = gate(broken, WORKLOADS["tdrive-shards"], REFERENCE)
    assert len(problems) == 1 and needle in problems[0]


def test_failed_passes_and_references_are_rejected():
    workload = WORKLOADS["oldenburg-shards"]
    assert "pass failed" in gate({"ok": False, "error": "boom"}, workload)[0]
    problems = gate(GOOD, workload, {"ok": False, "error": "boom"})
    assert problems == ["reference pass failed: boom"]


def test_variants():
    http = WORKLOADS["tdrive-http"]
    assert variant_of(http, "reference").boundary == "session"
    assert variant_of(http, "reference").max_lateness == http.max_lateness
    shards = WORKLOADS["oldenburg-shards"]
    assert variant_of(shards, "reference").shard_executor == "serial"
    assert variant_of(shards, "reference").n_shards == 2
    assert variant_of(shards, "baseline").n_shards == 1
    session = WORKLOADS["oldenburg-session"]
    assert variant_of(session, "baseline") == session


def _run(*args):
    return subprocess.run(
        [sys.executable, str(RUN_PY), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


def test_a_corrupted_snapshot_makes_the_run_exit_non_zero():
    proc = _run("--workload", "tdrive-shards", "--seed", "0", "--seconds", "5",
                "--fault", "corrupt-snapshot")
    assert proc.returncode != 0
    assert "diverge from the reference at round 50" in proc.stderr
    assert not proc.stdout.strip()  # no metrics line


def test_a_refused_spend_makes_the_run_exit_non_zero():
    proc = _run("--workload", "oldenburg-session", "--seed", "0", "--seconds", "2",
                "--fault", "refuse-spend")
    assert proc.returncode != 0
    assert "PrivacyBudgetError" in proc.stderr
    assert not proc.stdout.strip()


def test_a_run_cut_short_by_its_deadline_prints_no_metrics():
    proc = _run("--workload", "oldenburg-session", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert "budget was spent after" in proc.stderr
    assert not proc.stdout.strip()


def test_a_clean_run_prints_one_valid_line():
    proc = _run("--workload", "tdrive-shards", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {
        "setup_s", "round_ms_p50", "round_ms_p95", "peak_rss_mb"
    }
    assert all(m["value"] > 0 for m in line["metrics"].values())
