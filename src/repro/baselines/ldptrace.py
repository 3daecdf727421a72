"""LDPTrace-style one-shot historical trajectory synthesis.

The paper positions RetraSyn against *historical* trajectory-synthesis
frameworks — most directly its own predecessor LDPTrace (Du et al., VLDB
2023, reference [22]) — which perform a single offline release: users
report trajectory features once, the curator builds a probabilistic model,
and complete synthetic trajectories are generated.  Such methods cannot
stream (they need the full trajectory, e.g. its length, up front;
Section I), but they are the natural yardstick for RetraSyn's *historical*
utility.

This module implements the LDPTrace recipe on our substrates:

* each user is assigned to exactly **one** of four report groups, and
  answers one question with the full budget ε via OUE (so the release is
  user-level ε-LDP — strictly stronger than one w-window):

  1. a uniformly sampled **intra-trajectory transition** (adjacent-cell
     movement, the paper's reachability-constrained domain);
  2. their **start cell**;
  3. their **end cell**;
  4. their **trajectory length**, clipped into ``n_length_bins`` buckets;

* the curator normalises the four estimates into a first-order Markov
  model, start/end distributions and a length distribution;
* synthesis draws a length, a start cell, then walks the Markov chain,
  biasing the final step toward the end-cell distribution.

The output is a historical database (all synthetic trajectories start at
t=0), so only trajectory-level and aggregate-spatial metrics are
meaningful — exactly the comparison ``experiments/historical.py`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.mobility_model import GlobalMobilityModel
from repro.exceptions import ConfigurationError
from repro.geo.trajectory import CellTrajectory
from repro.ldp.accountant import ColumnarPrivacyAccountant, make_accountant
from repro.ldp.oue import OptimizedUnaryEncoding
from repro.rng import RngLike, ensure_rng
from repro.stream.state_space import TransitionStateSpace
from repro.stream.stream import StreamDataset


def clip_and_normalize(estimates: np.ndarray) -> np.ndarray:
    """Standard post-processing: clip negatives to 0 and renormalise.

    Post-processing never costs privacy (paper Theorem 2).  When all mass is
    clipped away the uniform distribution is returned, which is the usual
    convention for empty noisy histograms.
    """
    clipped = np.clip(np.asarray(estimates, dtype=float), 0.0, None)
    total = clipped.sum()
    if total <= 0.0:
        return np.full(clipped.shape, 1.0 / clipped.size)
    return clipped / total


@dataclass
class LDPTraceConfig:
    """Configuration of the one-shot historical synthesizer."""

    epsilon: float = 1.0
    n_length_bins: int = 16
    max_length: Optional[int] = None  # None => longest real trajectory
    oracle_mode: str = "fast"
    track_privacy: bool = True
    seed: RngLike = None

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        if self.n_length_bins < 1:
            raise ConfigurationError(
                f"n_length_bins must be >= 1, got {self.n_length_bins}"
            )

    @property
    def label(self) -> str:
        return "LDPTrace"


@dataclass
class HistoricalRelease:
    """Output of one historical synthesis."""

    synthetic: StreamDataset
    config: LDPTraceConfig
    accountant: Optional[ColumnarPrivacyAccountant]
    model: GlobalMobilityModel
    length_distribution: np.ndarray


class LDPTraceSynthesizer:
    """One-shot LDP trajectory synthesizer (historical release)."""

    def __init__(self, config: Optional[LDPTraceConfig] = None) -> None:
        self.config = config or LDPTraceConfig()

    # ------------------------------------------------------------------ #
    def run(self, dataset: StreamDataset) -> HistoricalRelease:
        """Collect once, model, and synthesize a full historical database."""
        cfg = self.config
        rng = ensure_rng(cfg.seed)
        grid = dataset.grid
        space = TransitionStateSpace(grid, include_entering_quitting=False)
        max_len = cfg.max_length or max(
            (len(t) for t in dataset.trajectories), default=1
        )
        # A single "window": one report per user ever => user-level LDP.
        accountant = make_accountant(cfg.epsilon, w=1) if cfg.track_privacy else None

        groups = self._assign_groups(dataset, rng)
        trans_freq = self._collect_transitions(groups["transition"], space, rng, accountant)
        start_freq = self._collect_cells(
            groups["start"], lambda tr: tr.cells[0], grid.n_cells, rng, accountant
        )
        end_freq = self._collect_cells(
            groups["end"], lambda tr: tr.cells[-1], grid.n_cells, rng, accountant
        )
        length_freq = self._collect_lengths(groups["length"], max_len, rng, accountant)

        model = GlobalMobilityModel(space)
        model.set_all(trans_freq)
        start_dist = clip_and_normalize(start_freq)
        end_dist = clip_and_normalize(end_freq)
        length_dist = clip_and_normalize(length_freq)

        synthetic = self._synthesize(
            dataset, grid, space, model, start_dist, end_dist, length_dist,
            max_len, rng,
        )
        return HistoricalRelease(
            synthetic=synthetic,
            config=cfg,
            accountant=accountant,
            model=model,
            length_distribution=length_dist,
        )

    # ------------------------------------------------------------------ #
    # collection
    # ------------------------------------------------------------------ #
    @staticmethod
    def _assign_groups(dataset: StreamDataset, rng) -> dict:
        """Randomly partition users into the four report groups."""
        groups = {"transition": [], "start": [], "end": [], "length": []}
        names = list(groups)
        trajectories = [t for t in dataset.trajectories if len(t) > 0]
        assignment = rng.integers(0, len(names), size=len(trajectories))
        for traj, g in zip(trajectories, assignment):
            groups[names[int(g)]].append(traj)
        return groups

    def _collect_transitions(self, trajs, space, rng, accountant) -> np.ndarray:
        reporters = [t for t in trajs if len(t) >= 2]
        if not reporters:
            return np.zeros(space.size)
        values = []
        for tr in reporters:
            moves = tr.transitions()
            a, b = moves[int(rng.integers(0, len(moves)))]
            values.append(space.index_of_move(a, b))
        est = self._oracle(space.size, rng).collect(values)
        self._spend(accountant, reporters)
        return est / len(reporters)

    def _collect_cells(self, trajs, pick, domain, rng, accountant) -> np.ndarray:
        if not trajs:
            return np.zeros(domain)
        values = [pick(tr) for tr in trajs]
        est = self._oracle(domain, rng).collect(values)
        self._spend(accountant, trajs)
        return est / len(trajs)

    def _collect_lengths(self, trajs, max_len, rng, accountant) -> np.ndarray:
        bins = self.config.n_length_bins
        if not trajs:
            return np.zeros(bins)
        values = [self._length_bin(len(tr), max_len) for tr in trajs]
        est = self._oracle(bins, rng).collect(values)
        self._spend(accountant, trajs)
        return est / len(trajs)

    def _length_bin(self, length: int, max_len: int) -> int:
        bins = self.config.n_length_bins
        frac = min(length, max_len) / max(1, max_len)
        return min(bins - 1, int(frac * bins))

    def _bin_to_length(self, b: int, max_len: int, rng) -> int:
        bins = self.config.n_length_bins
        lo = int(b / bins * max_len)
        hi = max(lo + 1, int((b + 1) / bins * max_len))
        return max(1, int(rng.integers(lo, hi + 1)))

    def _oracle(self, domain, rng) -> OptimizedUnaryEncoding:
        return OptimizedUnaryEncoding(
            domain, self.config.epsilon, rng=rng, mode=self.config.oracle_mode
        )

    @staticmethod
    def _spend(accountant, trajs) -> None:
        if accountant is not None:
            uids = np.fromiter((tr.user_id for tr in trajs), np.int64, len(trajs))
            accountant.spend_many(uids, 0, accountant.epsilon)

    # ------------------------------------------------------------------ #
    # synthesis
    # ------------------------------------------------------------------ #
    def _synthesize(
        self, dataset, grid, space, model, start_dist, end_dist, length_dist,
        max_len, rng,
    ) -> StreamDataset:
        n = len(dataset.trajectories)
        horizon = max_len + 1
        trajectories = []
        lengths = rng.choice(length_dist.size, size=n, p=length_dist)
        starts = rng.choice(start_dist.size, size=n, p=start_dist)
        for uid in range(n):
            target_len = self._bin_to_length(int(lengths[uid]), max_len, rng)
            cells = [int(starts[uid])]
            for step in range(target_len - 1):
                origin = cells[-1]
                probs, _quit = model.row_distribution(origin)
                dests = space.out_destinations(origin)
                if step == target_len - 2:
                    # Final step: bias toward the end-cell distribution.
                    weights = probs * np.asarray([end_dist[d] for d in dests])
                    total = weights.sum()
                    probs = weights / total if total > 0 else probs
                cells.append(int(dests[int(rng.choice(len(dests), p=probs))]))
            trajectories.append(CellTrajectory(0, cells, user_id=uid))
        return StreamDataset(
            grid,
            trajectories,
            n_timestamps=horizon,
            name=f"LDPTrace({dataset.name})",
        )
