"""Every example script must run to completion as a real subprocess."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
SCRIPTS = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    assert len(SCRIPTS) >= 3, SCRIPTS
    assert "quickstart.py" in SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"{script} failed:\n--- stdout ---\n{result.stdout[-2000:]}"
        f"\n--- stderr ---\n{result.stderr[-2000:]}"
    )
    assert result.stdout.strip(), f"{script} produced no output"


def test_streaming_service_resumes_from_half_the_horizon(capsys):
    """The service stops at half the horizon, and the resumed run equals
    the uninterrupted one (``main`` asserts that itself)."""
    spec = importlib.util.spec_from_file_location(
        "streaming_service", EXAMPLES_DIR / "streaming_service.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    horizon = int(re.search(r"(\d+) timestamps\n", out).group(1))
    assert f"resumed from t={horizon // 2}," in out
    assert "identical synthetic stream: True, audit ok" in out
