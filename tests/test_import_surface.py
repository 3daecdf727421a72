"""The served path must not import the evaluation stack.

``repro serve``, a ``Client`` script and the session API never evaluate a
metric or generate a road-network dataset, so importing them must not pull
in ``scipy`` (Kendall's tau) or ``networkx`` (the Brinkhoff generator):
both cost about a second of start-up and tens of MB of resident memory.
The code that does use them imports them when it runs, and both are
declared dependencies of the package.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SERVED_MODULES = ("repro.cli", "repro.serve", "repro.api.session", "repro.api.client")
EVALUATION_ONLY = ("scipy", "networkx")


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter with ``src`` importable; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout.strip()


def test_served_modules_do_not_import_scipy_or_networkx():
    code = (
        "import importlib, sys\n"
        f"for name in {SERVED_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(sorted(m for m in {EVALUATION_ONLY!r} if m in sys.modules))\n"
    )
    assert run_python(code) == "[]"


@pytest.mark.parametrize(
    "module, use",
    [
        (
            "scipy",
            "from repro.datasets.synthetic import make_random_walks\n"
            "from repro.metrics.kendall import kendall_tau\n"
            "ds = make_random_walks(k=4, n_streams=20, n_timestamps=8, seed=0)\n"
            "assert kendall_tau(ds, ds) == 1.0\n",
        ),
        (
            "networkx",
            "from repro.datasets.brinkhoff import BrinkhoffConfig, NetworkGenerator\n"
            "cfg = BrinkhoffConfig(n_initial=5, n_timestamps=4, k=4, graph_size=4)\n"
            "assert len(NetworkGenerator(cfg, rng=0).generate()) > 0\n",
        ),
    ],
    ids=["kendall_tau", "brinkhoff"],
)
def test_dependency_loads_when_its_code_runs(module, use):
    code = (
        "import sys\n"
        "import repro\n"
        f"before = {module!r} in sys.modules\n"
        f"{use}"
        f"print(before, {module!r} in sys.modules)\n"
    )
    assert run_python(code) == "False True"


def test_every_third_party_import_is_declared():
    # The ``[project]`` dependency list; tomllib needs Python 3.11, the package 3.10.
    listing = re.search(
        r"^dependencies\s*=\s*(\[.*?\])", (REPO / "pyproject.toml").read_text(),
        re.MULTILINE | re.DOTALL,
    )
    declared = {
        re.split(r"[\s;\[<>=!~]", dep, maxsplit=1)[0]
        for dep in ast.literal_eval(listing.group(1))
    }
    imported = set()
    for path in (REPO / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"repro"}
    assert third_party <= declared, sorted(third_party - declared)
    assert {"numpy", *EVALUATION_ONLY} <= third_party
