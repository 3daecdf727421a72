"""RetraSyn: real-time trajectory stream synthesis under w-event ε-LDP.

A full reproduction of *"Real-Time Trajectory Synthesis with Local
Differential Privacy"* (ICDE 2024): the RetraSyn framework, the LDP-IDS
baselines it is compared against, the datasets of the evaluation section,
and all eight utility metrics.

Quickstart::

    from repro import RetraSyn, RetraSynConfig, load_dataset, evaluate_all

    data = load_dataset("tdrive", scale=0.05, seed=0)
    run = RetraSyn(RetraSynConfig(epsilon=1.0, w=20, seed=0)).run(data)
    assert run.accountant.verify()          # w-event ε-LDP held
    scores = evaluate_all(data, run.synthetic, phi=10, rng=0)

Session API (engine-agnostic; see ``docs/API.md``)::

    from repro import SessionSpec, create_session

    spec = SessionSpec(epsilon=1.0, w=20, seed=0, n_shards=4)
    session = create_session(spec, data.grid, lam=14.0)
"""

from repro.analysis import fidelity_report
from repro.api.client import Client
from repro.api.session import (
    CuratorSession,
    DirectSession,
    IngestSession,
    create_session,
    load_session,
)
from repro.api.specs import SessionSpec
from repro.core import (
    GlobalMobilityModel,
    OnlineRetraSyn,
    RetraSyn,
    RetraSynConfig,
    SynthesisRun,
    Synthesizer,
    VectorizedSynthesizer,
    make_all_update,
    make_no_eq,
    make_retrasyn,
)
from repro.baselines import LBA, LBD, LPA, LPD, make_baseline
from repro.datasets import (
    load_dataset,
    make_oldenburg,
    make_sanjoaquin,
    make_tdrive,
)
from repro.geo import BoundingBox, Grid, Point, Trajectory, CellTrajectory
from repro.ldp import OptimizedUnaryEncoding
from repro.metrics import ALL_METRICS, evaluate_all
from repro.planning import DeploymentPlan, plan_report, recommend_k
from repro.stream import StreamDataset, TransitionStateSpace

__version__ = "1.0.0"

__all__ = [
    "SessionSpec",
    "CuratorSession",
    "DirectSession",
    "IngestSession",
    "create_session",
    "load_session",
    "Client",
    "RetraSyn",
    "RetraSynConfig",
    "OnlineRetraSyn",
    "SynthesisRun",
    "Synthesizer",
    "VectorizedSynthesizer",
    "GlobalMobilityModel",
    "fidelity_report",
    "make_retrasyn",
    "make_all_update",
    "make_no_eq",
    "LBD",
    "LBA",
    "LPD",
    "LPA",
    "make_baseline",
    "load_dataset",
    "make_tdrive",
    "make_oldenburg",
    "make_sanjoaquin",
    "Grid",
    "Point",
    "BoundingBox",
    "Trajectory",
    "CellTrajectory",
    "OptimizedUnaryEncoding",
    "ALL_METRICS",
    "evaluate_all",
    "DeploymentPlan",
    "plan_report",
    "recommend_k",
    "StreamDataset",
    "TransitionStateSpace",
    "__version__",
]
