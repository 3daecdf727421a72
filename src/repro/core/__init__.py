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

from repro.core.mobility_model import GlobalMobilityModel
from repro.core.dmu import DMUSelector
from repro.core.synthesis import Synthesizer
from repro.core.fast_synthesis import VectorizedSynthesizer
from repro.core.trajectory_store import StoreTrajectories, TrajectoryStore
from repro.core.allocation import (
    AdaptiveBudgetAllocator,
    AdaptivePopulationAllocator,
    AllocationContext,
    BudgetAllocator,
    PopulationAllocator,
    SampleBudgetAllocator,
    SamplePopulationAllocator,
    UniformBudgetAllocator,
    UniformPopulationAllocator,
)
from repro.core.online import OnlineRetraSyn, TimestepResult
from repro.core.sharded import CollectionShard, shard_of
from repro.core.persistence import (
    load_checkpoint,
    load_config,
    load_model,
    peek_checkpoint_spec,
    save_checkpoint,
    save_config,
    save_model,
)
from repro.core.retrasyn import RetraSyn, RetraSynConfig, SynthesisRun
from repro.core.variants import make_all_update, make_no_eq, make_retrasyn

__all__ = [
    "GlobalMobilityModel",
    "DMUSelector",
    "Synthesizer",
    "VectorizedSynthesizer",
    "TrajectoryStore",
    "StoreTrajectories",
    "AllocationContext",
    "BudgetAllocator",
    "PopulationAllocator",
    "AdaptiveBudgetAllocator",
    "AdaptivePopulationAllocator",
    "UniformBudgetAllocator",
    "UniformPopulationAllocator",
    "SampleBudgetAllocator",
    "SamplePopulationAllocator",
    "RetraSyn",
    "RetraSynConfig",
    "SynthesisRun",
    "OnlineRetraSyn",
    "TimestepResult",
    "CollectionShard",
    "shard_of",
    "save_model",
    "load_model",
    "save_config",
    "load_config",
    "save_checkpoint",
    "load_checkpoint",
    "peek_checkpoint_spec",
    "make_retrasyn",
    "make_all_update",
    "make_no_eq",
]
