"""The end-to-end RetraSyn pipeline (paper Algorithm 1).

One :class:`RetraSyn` instance processes a full trajectory stream::

    run = RetraSyn(RetraSynConfig(epsilon=1.0, w=20)).run(dataset)
    run.synthetic        # a StreamDataset of synthetic trajectories
    run.accountant       # verified w-event LDP ledger
    run.timings          # per-component wall-clock totals (Table V)

Both division styles are implemented:

* **population division** (``RetraSyn_p``) — Algorithm 1 verbatim: a
  ``p_t``-fraction of the dynamic active-user set reports with the full ε
  and is rested for ``w`` timestamps (recycled at ``t + w``);
* **budget division** (``RetraSyn_b``) — every participating user reports at
  every collection timestamp with a small ``ε_t`` chosen so any window of
  ``w`` timestamps sums to at most ε.

Quitting users report their quit transition at the timestamp immediately
after their final location (the paper's Section V-A inserts quitting events
exactly there when splitting gapped traces) and are marked *quitted*
afterwards, so the quitting distribution Q is learnable while each user
still reports at most once per window under population division.

The batch pipeline drives :class:`~repro.core.online.OnlineRetraSyn`
timestamp by timestamp, so the streaming deployment path and the
experiment path share one implementation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.geo.trajectory import average_length
from repro.ldp.accountant import ColumnarPrivacyAccountant, PrivacyAccountant
from repro.rng import RngLike
from repro.stream.stream import StreamDataset


@dataclass
class RetraSynConfig:
    """Flat compatibility façade over the layered session specs.

    All tunables of the pipeline; defaults follow Table II / Section V-A.
    The canonical, layered configuration model lives in
    :mod:`repro.api.specs` (``PrivacySpec`` / ``EngineSpec`` /
    ``ShardingSpec`` composed into ``SessionSpec``); this dataclass keeps
    the historical flat keyword surface, and every validation rule is
    enforced by lifting into a :class:`~repro.api.specs.SessionSpec` at
    construction time — so the two surfaces cannot disagree.
    """

    epsilon: float = 1.0
    w: int = 20
    division: str = "population"  # "population" (RetraSyn_p) | "budget" (RetraSyn_b)
    allocator: str = "adaptive"  # "adaptive(-user)" | "uniform" | "sample" | "random"
    update_strategy: str = "dmu"  # "dmu" | "all"  ("all" = AllUpdate variant)
    model_entering_quitting: bool = True  # False = NoEQ variant
    lam: Optional[float] = None  # λ of Eq. 8; None => dataset average length
    alpha: float = 8.0
    kappa: int = 5
    p_max: float = 0.6
    oracle_mode: str = "fast"  # "fast" (binomial) | "exact" (batched protocol)
    engine: str = "object"  # "object" | "vectorized" synthesis engine
    synthesis_shards: int = 1  # slabs for parallel vectorized generation
    n_shards: int = 1  # hash-partitioned collection shards
    shard_executor: str = "serial"  # "serial" | "distributed"
    shard_round_timeout: float = 60.0  # distributed recv deadline (0 = none)
    round_batch: int = 1  # must be 1: pipelined rounds were removed
    track_privacy: bool = True
    accountant_mode: str = "columnar"  # the one curator ledger engine
    seed: RngLike = None

    def __post_init__(self) -> None:
        # Validation lives in the layered spec model: lifting raises
        # ConfigurationError for any bad field or combination.
        self.to_spec()

    def to_spec(self):
        """Lift to the canonical :class:`~repro.api.specs.SessionSpec`."""
        from repro.api.specs import SessionSpec

        return SessionSpec.from_config(self)

    @property
    def label(self) -> str:
        """Human-readable method name in the paper's notation."""
        suffix = "p" if self.division == "population" else "b"
        if self.update_strategy == "all":
            return f"AllUpdate_{suffix}"
        if not self.model_entering_quitting:
            return f"NoEQ_{suffix}"
        return f"RetraSyn_{suffix}"


@dataclass
class SynthesisRun:
    """Everything produced by one pipeline execution."""

    synthetic: StreamDataset
    config: RetraSynConfig
    accountant: Optional["PrivacyAccountant | ColumnarPrivacyAccountant"]
    timings: dict[str, float] = field(default_factory=dict)
    reporters_per_timestamp: list[int] = field(default_factory=list)
    significant_per_timestamp: list[int] = field(default_factory=list)
    total_runtime: float = 0.0

    @property
    def n_timestamps(self) -> int:
        return self.synthetic.n_timestamps

    def avg_time_per_timestamp(self) -> dict[str, float]:
        """Per-timestamp component averages, the shape of Table V."""
        n = max(1, self.n_timestamps)
        out = {k: v / n for k, v in self.timings.items()}
        out["total"] = self.total_runtime / n
        return out


class RetraSyn:
    """Locally differentially private real-time trajectory synthesizer."""

    def __init__(self, config: Optional[RetraSynConfig] = None) -> None:
        self.config = config or RetraSynConfig()

    def run(self, dataset: StreamDataset) -> SynthesisRun:
        """Process the full stream and return the synthetic database."""
        from repro.core.online import OnlineRetraSyn
        from repro.stream.reports import ColumnarStreamView

        cfg = self.config
        lam = (
            cfg.lam
            if cfg.lam is not None
            else max(1.0, average_length(dataset.trajectories))
        )
        curator = OnlineRetraSyn(dataset.grid, cfg, lam=lam)

        # The batch pipeline feeds the curator columnar ReportBatches: the
        # per-timestamp views are materialised once as index arrays instead
        # of per-user TransitionState objects every round.  Row order
        # matches participants_at, so this is bit-identical to the object
        # path under a fixed seed.
        view = ColumnarStreamView(dataset, curator.space)
        try:
            start = time.perf_counter()
            for t in range(dataset.n_timestamps):
                curator.process_timestep(
                    t,
                    view.batch_at(t),
                    view.newly_entered_at(t),
                    view.quitted_at(t),
                    view.n_active_at(t),
                )
            total_runtime = time.perf_counter() - start
        finally:
            curator.close()

        return curator.result(
            dataset.n_timestamps,
            name=f"{cfg.label}({dataset.name})",
            total_runtime=total_runtime,
        )
