"""The served path must not import the evaluation stack.

``repro serve``, a ``Client`` script and the session API never evaluate a
metric or generate a road-network dataset, so importing them must not pull
in ``scipy`` (Kendall's tau) or ``networkx`` (the Brinkhoff generator):
both cost about a second of start-up and tens of MB of resident memory.
The code that does use them imports them when it runs, and both are
declared dependencies of the package.

Nor may it import the ``repro`` modules it never runs: every package
exports its names lazily, so a served process compiles only the modules
its rounds execute.  The module budget below holds after rounds have run,
not only after import.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SERVED_MODULES = ("repro.cli", "repro.serve", "repro.api.session", "repro.api.client")
EVALUATION_ONLY = ("scipy", "networkx")
#: Packages whose ``__init__`` resolves its exports on first read.
LAZY_PACKAGES = (
    "repro", "repro.api", "repro.core", "repro.stream", "repro.datasets",
    "repro.metrics", "repro.analysis", "repro.analysis.lint", "repro.ldp",
    "repro.geo", "repro.baselines", "repro.obs",
)
#: Modules a served process never runs, even after rounds (prefix matches
#: end in ``.``; the object engine is ``repro.core.synthesis``).
NEVER_SERVED = (
    "repro.analysis", "repro.metrics", "repro.baselines", "repro.experiments",
    "repro.planning", "repro.datasets.tdrive", "repro.datasets.brinkhoff",
    "repro.datasets.synthetic", "repro.datasets.preprocess",
    "repro.datasets.registry", "repro.core.synthesis",
)
#: ``repro`` modules that ``import repro.api.client`` may load.
CLIENT_MODULE_BUDGET = 15

#: An ingress on a thread and a Client that submits 30 rounds, takes a
#: snapshot and closes; prints the repro modules loaded during the rounds
#: and after the run, and whether ``numpy.ma`` was loaded.
SERVED_RUN = """
import asyncio, json, sys, threading
import numpy as np
from repro.api.client import Client
from repro.api.http import HttpIngress
from repro.api.session import create_session
from repro.api.specs import SessionSpec
from repro.geo.grid import unit_grid
from repro.geo.trajectory import CellTrajectory
from repro.stream.reports import ColumnarStreamView
from repro.stream.state_space import TransitionStateSpace
from repro.stream.stream import StreamDataset

rng = np.random.default_rng(0)
grid = unit_grid(4)
streams = [
    CellTrajectory(int(rng.integers(0, 20)),
                   [int(rng.integers(0, 16))] * int(rng.integers(3, 12)),
                   user_id=uid)
    for uid in range(60)
]
data = StreamDataset(grid, streams, n_timestamps=32, name="budget")
spec = SessionSpec(
    epsilon=1.0, w=10, seed=0, engine="vectorized", transport="ingest"
)
ingress = HttpIngress(create_session(spec, grid, lam=6.0))
ready = threading.Event()

async def serve():
    await ingress.start()
    ready.set()
    await ingress.serve_until_shutdown()

thread = threading.Thread(target=asyncio.run, args=(serve(),))
thread.start()
assert ready.wait(30)
client = Client("127.0.0.1", ingress.port)
space = TransitionStateSpace(
    client.grid(), include_entering_quitting=client.hello()["include_eq"]
)
view = ColumnarStreamView(data, space)
before = set(sys.modules)
for t in range(30):
    client.submit_batch(
        t, view.batch_at(t), newly_entered=view.newly_entered_at(t),
        quitted=view.quitted_at(t), n_real_active=view.n_active_at(t),
    )
during = sorted(m for m in set(sys.modules) - before if m.startswith("repro"))
client.snapshot()
client.close()
client.shutdown_server()
thread.join(30)
assert ingress.session.stats()["n_timestamps"] == 30
print(json.dumps({
    "during": during,
    "after": sorted(m for m in sys.modules if m.startswith("repro")),
    "numpy_ma": "numpy.ma" in sys.modules,
}))
"""


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


def test_served_run_stays_inside_the_module_budget():
    loaded = json.loads(run_python(SERVED_RUN))
    assert loaded["during"] == [], "rounds imported modules"
    # np.unique / np.union1d import numpy.ma on first use (numpy 2.x).
    assert not loaded["numpy_ma"], "the served run imported numpy.ma"
    never = [
        m for m in loaded["after"]
        if any(m == n or m.startswith(n + ".") for n in NEVER_SERVED)
    ]
    assert never == []


def test_client_import_stays_inside_the_module_budget():
    loaded = json.loads(run_python(
        "import json, sys\n"
        "import repro.api.client\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    ))
    assert len(loaded) <= CLIENT_MODULE_BUDGET, loaded
    assert "repro.api.session" not in loaded


def test_lazy_packages_import_none_of_their_modules():
    """Importing a package runs none of its modules, yet dir() lists all
    of its exports."""
    code = (
        "import importlib, json, sys\n"
        "out = {}\n"
        f"for name in {LAZY_PACKAGES!r}:\n"
        "    before = set(sys.modules)\n"
        "    package = importlib.import_module(name)\n"
        "    ran = sorted(m for m in set(sys.modules) - before\n"
        "                 if m.startswith('repro.') and m not in (name, 'repro._lazy'))\n"
        "    unlisted = sorted(set(package.__all__) - set(dir(package)))\n"
        "    out[name] = ran + unlisted\n"
        "print(json.dumps(out))\n"
    )
    assert json.loads(run_python(code)) == {name: [] for name in LAZY_PACKAGES}


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_lazy_export_resolves_and_is_listed(package):
    import importlib

    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in listed, name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(module, "no_such_name")
