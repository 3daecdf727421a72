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

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Public name -> the module that defines it, imported on first read.
_EXPORTS = {
    "SessionSpec": "api.specs",
    "CuratorSession": "api.session",
    "DirectSession": "api.session",
    "IngestSession": "api.session",
    "create_session": "api.session",
    "load_session": "api.session",
    "Client": "api.client",
    "RetraSyn": "core.retrasyn",
    "RetraSynConfig": "core.retrasyn",
    "OnlineRetraSyn": "core.online",
    "SynthesisRun": "core.retrasyn",
    "Synthesizer": "core.synthesis",
    "VectorizedSynthesizer": "core.fast_synthesis",
    "GlobalMobilityModel": "core.mobility_model",
    "fidelity_report": "analysis.comparison",
    "make_retrasyn": "core.variants",
    "make_all_update": "core.variants",
    "make_no_eq": "core.variants",
    "LBD": "baselines.ldp_ids",
    "LBA": "baselines.ldp_ids",
    "LPD": "baselines.ldp_ids",
    "LPA": "baselines.ldp_ids",
    "make_baseline": "baselines.ldp_ids",
    "load_dataset": "datasets.registry",
    "make_tdrive": "datasets.tdrive",
    "make_oldenburg": "datasets.brinkhoff",
    "make_sanjoaquin": "datasets.brinkhoff",
    "Grid": "geo.grid",
    "Point": "geo.point",
    "BoundingBox": "geo.point",
    "Trajectory": "geo.trajectory",
    "CellTrajectory": "geo.trajectory",
    "OptimizedUnaryEncoding": "ldp.oue",
    "ALL_METRICS": "metrics.registry",
    "evaluate_all": "metrics.registry",
    "DeploymentPlan": "planning",
    "plan_report": "planning",
    "recommend_k": "planning",
    "StreamDataset": "stream.stream",
    "TransitionStateSpace": "stream.state_space",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
