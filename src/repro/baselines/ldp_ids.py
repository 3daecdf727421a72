"""LDP-IDS stream-publication strategies adapted to trajectory streams.

Implements the four w-event ε-LDP strategies of Ren et al. (SIGMOD 2022) on
top of the framework's adaptation used by the paper (Section V-A):

* users report **movement transition states only** (no entering/quitting);
* the released per-timestamp statistic is the frequency vector over the
  movement state space;
* synthesis uses the same first-order Markov generator as RetraSyn, seeded
  once from the origin marginal of the first release, with streams that
  never terminate and no size adjustment.

Each strategy follows LDP-IDS's **two-step private mechanism** at every
timestamp: first a *dissimilarity* estimate decides between publishing fresh
statistics and re-releasing the previous ones; then, on publication, the
remaining budget/users are spent.

Budget split (budget division): half of ε is reserved for dissimilarity
(``ε/(2w)`` per timestamp) and half for publications, exactly as in the
original BD/BA mechanisms.  Population division substitutes user groups for
budget shares and relies on a **fixed-population assumption** — group sizes
are derived from the initial active-user count ``N_0`` — which is precisely
the limitation the paper identifies in dynamic streams.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.mobility_model import GlobalMobilityModel
from repro.core.retrasyn import SynthesisRun
from repro.core.synthesis import Synthesizer
from repro.exceptions import ConfigurationError
from repro.ldp.accountant import make_accountant
from repro.ldp.oue import OptimizedUnaryEncoding, oue_variance
from repro.rng import RngLike, ensure_rng
from repro.stream.reports import ColumnarStreamView, ReportBatch
from repro.stream.state_space import TransitionStateSpace
from repro.stream.stream import StreamDataset

_STRATEGIES = ("lbd", "lba", "lpd", "lpa")


class AbsorptionSchedule:
    """Unit bookkeeping for Budget/Population Absorption (LBA / LPA).

    Each timestamp contributes one *unit* of publication budget (``ε/(2w)``
    for LBA, ``N0/(2w)`` users for LPA).  Skipped timestamps leave their
    units to be absorbed by the next publication; a publication that
    absorbs ``k`` units *nullifies* the following ``k − 1`` timestamps so
    the sliding-window invariant of the original Budget Absorption
    mechanism (Kellaris et al., 2014) holds.
    """

    def __init__(self) -> None:
        self.units = 0
        self.nullified = 0

    def tick(self) -> bool:
        """Advance one timestamp; returns whether publishing is allowed."""
        self.units += 1
        if self.nullified > 0:
            self.nullified -= 1
            return False
        return True

    def publish(self) -> int:
        """Consume all accumulated units; returns how many were absorbed."""
        used = self.units
        self.units = 0
        self.nullified = max(0, used - 1)
        return used


@dataclass
class LdpIdsConfig:
    """Configuration of an LDP-IDS baseline run."""

    epsilon: float = 1.0
    w: int = 20
    strategy: str = "lbd"
    oracle_mode: str = "fast"
    track_privacy: bool = True
    seed: RngLike = None

    def __post_init__(self) -> None:
        if self.strategy not in _STRATEGIES:
            raise ConfigurationError(
                f"strategy must be one of {_STRATEGIES}, got {self.strategy!r}"
            )
        if self.epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        if self.w < 1:
            raise ConfigurationError(f"w must be >= 1, got {self.w}")

    @property
    def label(self) -> str:
        return self.strategy.upper()

    @property
    def division(self) -> str:
        return "budget" if self.strategy in ("lbd", "lba") else "population"


class _LdpIds:
    """Shared driver for all four strategies."""

    def __init__(self, config: LdpIdsConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------ #
    def run(self, dataset: StreamDataset) -> SynthesisRun:
        cfg = self.config
        rng = ensure_rng(cfg.seed)
        space = TransitionStateSpace(dataset.grid, include_entering_quitting=False)
        view = ColumnarStreamView(dataset, space)
        model = GlobalMobilityModel(space)
        synthesizer = Synthesizer(model, lam=1.0, enable_termination=False, rng=rng)
        accountant = make_accountant(cfg.epsilon, cfg.w) if cfg.track_privacy else None

        release = np.zeros(space.size)  # r_{t-1}, the last published stats
        have_release = False
        reporters_per_t: list[int] = []

        # Absorption schedules (reset per run so instances are reusable).
        self._lba = AbsorptionSchedule()
        self._lpa = AbsorptionSchedule()

        # Budget-division bookkeeping.
        eps_dissim = cfg.epsilon / (2 * cfg.w)
        pub_spends: list[float] = []  # publication budget per past timestamp

        # Population-division bookkeeping (fixed-set assumption).
        n0 = max(1, dataset.n_active_at(0))
        m_dissim = max(1, int(round(n0 / (2 * cfg.w))))
        pub_users_spent: list[int] = []  # publication users per past timestamp
        last_report: dict[int, int] = {}

        start = time.perf_counter()
        for t in range(dataset.n_timestamps):
            moves = view.batch_at(t).moves_only()
            if cfg.division == "budget":
                release, have_release, n_reporters = self._budget_step(
                    t, moves, release, have_release, space, rng,
                    eps_dissim, pub_spends, accountant,
                )
            else:
                release, have_release, n_reporters = self._population_step(
                    t, moves, release, have_release, space, rng,
                    n0, m_dissim, pub_users_spent, last_report, accountant,
                )
            reporters_per_t.append(n_reporters)

            # Model: the released stats fully define the current model.
            if have_release:
                model.set_all(release)

            # Synthesis: seed once, then free-run the Markov chain.
            if t == 0:
                init_probs = self._origin_marginal(space, release)
                synthesizer.spawn_from_distribution(
                    0, dataset.n_active_at(0), init_probs
                )
            else:
                synthesizer.step(t, None)

        total_runtime = time.perf_counter() - start
        synthetic = StreamDataset(
            dataset.grid,
            synthesizer.all_trajectories(),
            n_timestamps=dataset.n_timestamps,
            name=f"{cfg.label}({dataset.name})",
        )
        return SynthesisRun(
            synthetic=synthetic,
            config=cfg,
            accountant=accountant,
            timings={},
            reporters_per_timestamp=reporters_per_t,
            total_runtime=total_runtime,
        )

    # ------------------------------------------------------------------ #
    # budget division (LBD / LBA)
    # ------------------------------------------------------------------ #
    def _budget_step(
        self, t, moves: ReportBatch, release, have_release, space, rng,
        eps_dissim, pub_spends, accountant,
    ):
        cfg = self.config
        n = len(moves)
        if n == 0:
            pub_spends.append(0.0)
            return release, have_release, 0

        # Step 1: dissimilarity estimate with ε/(2w).
        oracle1 = OptimizedUnaryEncoding(
            space.size, eps_dissim, rng=rng, mode=cfg.oracle_mode
        )
        est = oracle1.collect(moves.state_idx) / n
        if accountant is not None:
            accountant.spend_many(moves.user_ids, t, eps_dissim)
        dis = max(
            0.0,
            float(np.mean((est - release) ** 2)) - oue_variance(eps_dissim, n),
        )

        # Step 2: candidate publication budget.
        eps_pub_cap = cfg.epsilon / 2.0
        window_pub = sum(pub_spends[-(cfg.w - 1):]) if cfg.w > 1 else 0.0
        eps_rm = max(0.0, eps_pub_cap - window_pub)
        if cfg.strategy == "lbd":
            candidate = eps_rm / 2.0
        else:  # lba
            if self._lba.tick():
                unit = cfg.epsilon / (2 * cfg.w)
                candidate = min(self._lba.units * unit, eps_pub_cap, eps_rm)
            else:
                candidate = 0.0

        err_pub = oue_variance(candidate, n) if candidate > 1e-12 else float("inf")
        publish = not have_release or dis > err_pub
        if publish and candidate > 1e-12:
            oracle2 = OptimizedUnaryEncoding(
                space.size, candidate, rng=rng, mode=cfg.oracle_mode
            )
            release = oracle2.collect(moves.state_idx) / n
            if accountant is not None:
                accountant.spend_many(moves.user_ids, t, candidate)
            have_release = True
            pub_spends.append(candidate)
            if cfg.strategy == "lba":
                self._lba.publish()
        else:
            pub_spends.append(0.0)
        return release, have_release, n

    # ------------------------------------------------------------------ #
    # population division (LPD / LPA)
    # ------------------------------------------------------------------ #
    def _population_step(
        self, t, moves: ReportBatch, release, have_release, space, rng,
        n0, m_dissim, pub_users_spent, last_report, accountant,
    ):
        cfg = self.config
        # A user is available once w timestamps have passed since their
        # last report (never-reported users default to exactly w ago).
        available = np.flatnonzero(np.fromiter(
            (t - last_report.get(u, t - cfg.w) >= cfg.w
             for u in moves.user_ids.tolist()),
            dtype=bool, count=len(moves),
        ))
        if not available.size:
            pub_users_spent.append(0)
            return release, have_release, 0
        rng.shuffle(available)

        # Step 1: dissimilarity with a small full-ε group.
        m1 = min(m_dissim, available.size)
        dissim_group = available[:m1]
        rest = available[m1:]
        oracle = OptimizedUnaryEncoding(
            space.size, cfg.epsilon, rng=rng, mode=cfg.oracle_mode
        )
        est = oracle.collect(moves.state_idx[dissim_group]) / m1
        self._report(moves.user_ids[dissim_group], t, last_report, accountant)
        reported = m1
        dis = max(
            0.0,
            float(np.mean((est - release) ** 2)) - oue_variance(cfg.epsilon, m1),
        )

        # Step 2: candidate publication group size (fixed-set arithmetic).
        pub_cap = n0 // 2
        window_used = sum(pub_users_spent[-(cfg.w - 1):]) if cfg.w > 1 else 0
        n_rm = max(0, pub_cap - window_used)
        if cfg.strategy == "lpd":
            candidate = n_rm // 2
        else:  # lpa
            if self._lpa.tick():
                unit = max(1, n0 // (2 * cfg.w))
                candidate = min(self._lpa.units * unit, pub_cap, n_rm)
            else:
                candidate = 0

        err_pub = (
            oue_variance(cfg.epsilon, candidate) if candidate >= 1 else float("inf")
        )
        publish = not have_release or dis > err_pub
        if publish and candidate >= 1 and rest.size:
            group = rest[:candidate]
            oracle2 = OptimizedUnaryEncoding(
                space.size, cfg.epsilon, rng=rng, mode=cfg.oracle_mode
            )
            release = oracle2.collect(moves.state_idx[group]) / group.size
            self._report(moves.user_ids[group], t, last_report, accountant)
            reported += group.size
            have_release = True
            pub_users_spent.append(group.size)
            if cfg.strategy == "lpa":
                self._lpa.publish()
        else:
            pub_users_spent.append(0)
        return release, have_release, reported

    def _report(self, user_ids, t, last_report, accountant) -> None:
        """A population-division group reports at ``t`` with the full ε."""
        last_report.update(dict.fromkeys(user_ids.tolist(), t))
        if accountant is not None:
            accountant.spend_many(user_ids, t, self.config.epsilon)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _origin_marginal(space: TransitionStateSpace, release: np.ndarray) -> np.ndarray:
        """Start-cell distribution: mass of movements leaving each cell."""
        f = np.clip(release, 0.0, None)
        marginal = np.zeros(space.n_cells)
        for origin in range(space.n_cells):
            marginal[origin] = f[space.out_move_indices(origin)].sum()
        total = marginal.sum()
        if total <= 0:
            return np.full(space.n_cells, 1.0 / space.n_cells)
        return marginal / total


class LBD(_LdpIds):
    """Budget division with exponentially decaying publication budgets."""

    def __init__(self, epsilon: float = 1.0, w: int = 20, **kwargs) -> None:
        super().__init__(LdpIdsConfig(epsilon=epsilon, w=w, strategy="lbd", **kwargs))


class LBA(_LdpIds):
    """Budget absorption: uniform publication budgets, skips absorbed."""

    def __init__(self, epsilon: float = 1.0, w: int = 20, **kwargs) -> None:
        super().__init__(LdpIdsConfig(epsilon=epsilon, w=w, strategy="lba", **kwargs))


class LPD(_LdpIds):
    """Population analogue of LBD (user groups instead of budget shares)."""

    def __init__(self, epsilon: float = 1.0, w: int = 20, **kwargs) -> None:
        super().__init__(LdpIdsConfig(epsilon=epsilon, w=w, strategy="lpd", **kwargs))


class LPA(_LdpIds):
    """Population analogue of LBA."""

    def __init__(self, epsilon: float = 1.0, w: int = 20, **kwargs) -> None:
        super().__init__(LdpIdsConfig(epsilon=epsilon, w=w, strategy="lpa", **kwargs))


def make_baseline(name: str, epsilon: float = 1.0, w: int = 20, **kwargs) -> _LdpIds:
    """Factory: build a baseline by its paper name (LBD/LBA/LPD/LPA)."""
    table = {"lbd": LBD, "lba": LBA, "lpd": LPD, "lpa": LPA}
    key = name.lower()
    if key not in table:
        raise ConfigurationError(f"unknown baseline {name!r}")
    return table[key](epsilon=epsilon, w=w, **kwargs)
