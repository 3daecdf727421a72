"""RetraSyn core: the paper's primary contribution.

* :class:`~repro.core.mobility_model.GlobalMobilityModel` — movement /
  entering / quitting distributions over the transition-state space (Eq. 6).
* :class:`~repro.core.dmu.DMUSelector` — significant-transition selection by
  minimising the introduced error (Eq. 7).
* :class:`~repro.core.synthesis.Synthesizer` — Markov generation with
  length-reweighted termination (Eq. 8) and size adjustment.
* :mod:`~repro.core.allocation` — adaptive / uniform / sample allocation for
  both budget division and population division (Eqs. 9–10).
* :class:`~repro.core.retrasyn.RetraSyn` — the end-to-end pipeline
  (Algorithm 1), with budget- and population-division modes.
* :mod:`~repro.core.variants` — AllUpdate and NoEQ ablation variants
  (Table IV).
* :class:`~repro.core.online.OnlineRetraSyn` — the one curator engine,
  collecting each timestamp through ``RetraSynConfig.n_shards``
  hash-partitioned :class:`~repro.core.sharded.CollectionShard` objects,
  in process or on worker processes (K=1 serial: one in-process shard on
  the engine's rng — the paper's unsharded round).
* :class:`~repro.core.trajectory_store.TrajectoryStore` — columnar (SoA)
  storage for synthetic streams, shared by both synthesis engines.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "GlobalMobilityModel": "mobility_model",
    "DMUSelector": "dmu",
    "Synthesizer": "synthesis",
    "VectorizedSynthesizer": "fast_synthesis",
    "TrajectoryStore": "trajectory_store",
    "StoreTrajectories": "trajectory_store",
    "AllocationContext": "allocation",
    "BudgetAllocator": "allocation",
    "PopulationAllocator": "allocation",
    "AdaptiveBudgetAllocator": "allocation",
    "AdaptivePopulationAllocator": "allocation",
    "UniformBudgetAllocator": "allocation",
    "UniformPopulationAllocator": "allocation",
    "SampleBudgetAllocator": "allocation",
    "SamplePopulationAllocator": "allocation",
    "RetraSyn": "retrasyn",
    "RetraSynConfig": "retrasyn",
    "SynthesisRun": "retrasyn",
    "OnlineRetraSyn": "online",
    "TimestepResult": "online",
    "CollectionShard": "sharded",
    "shard_of": "sharded",
    "save_model": "persistence",
    "load_model": "persistence",
    "save_config": "persistence",
    "load_config": "persistence",
    "save_checkpoint": "persistence",
    "load_checkpoint": "persistence",
    "peek_checkpoint_spec": "persistence",
    "make_retrasyn": "variants",
    "make_all_update": "variants",
    "make_no_eq": "variants",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
