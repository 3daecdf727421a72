"""Allocation strategies (paper Section III-E, Eqs. 9–10).

w-event LDP caps the budget spent inside any sliding window of ``w``
timestamps at ``ε``.  Two division styles are supported:

* **budget division** — every reporting timestamp uses a fraction of the
  remaining window budget ``ε_rm = ε − Σ_{i=t-w+1}^{t-1} ε_i``;
* **population division** — a fraction ``p_t`` of the *active* user set
  reports with the full ``ε`` and is then rested for ``w`` timestamps.

Three allocators are provided per style:

* **Adaptive** — the paper's portion rule (Eq. 10)::

      p_t = min{ (α/w) · (1 − mean_{κ} |S*_i|/|S|) · ln(Dev_t + 1), p_max }

  where ``Dev_t`` (Eq. 9) measures how far the latest collected statistics
  drifted from the recent average.  Equation 9 is written as a signed sum in
  the paper; because collected frequency vectors each sum to (approximately)
  one, the signed sum telescopes toward zero, so — like the authors'
  implementation — we accumulate absolute deviations.
* **Uniform** — ``ε_i = ε/w`` (budget) or ``p = 1/w`` (population).
* **Sample** — the entire budget / population is spent on the first
  timestamp of each window; nothing happens in between.
"""

from __future__ import annotations

import abc
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.ldp.accountant import SlidingBudgetTracker

#: Paper defaults (Section V-A).
DEFAULT_ALPHA = 8.0
DEFAULT_KAPPA = 5
DEFAULT_P_MAX = 0.6


@dataclass
class AllocationContext:
    """Rolling statistics shared between the pipeline and the allocators.

    The pipeline appends one entry per *collection* round:

    * ``collected`` — the debiased frequency vector ``f^t`` gathered at a
      reporting timestamp (used for ``Dev_t``);
    * ``significant_ratio`` — ``|S*_t| / |S|`` from the DMU round.
    """

    kappa: int = DEFAULT_KAPPA
    _freq_history: deque = field(init=False)
    _ratio_history: deque = field(init=False)

    def __post_init__(self) -> None:
        if self.kappa < 1:
            raise ConfigurationError(f"kappa must be >= 1, got {self.kappa}")
        # One extra slot: Dev compares the latest vector against the mean of
        # the κ vectors preceding it.
        self._freq_history = deque(maxlen=self.kappa + 1)
        self._ratio_history = deque(maxlen=self.kappa)

    def state(self) -> dict:
        freqs = list(self._freq_history)
        return {
            "n_freqs": len(freqs),
            "freqs": np.concatenate(freqs) if freqs else np.empty(0),
            "ratios": np.asarray(self._ratio_history, dtype=np.float64),
        }

    def load_state(self, state: dict) -> None:
        freqs, n = state["freqs"].copy(), int(state["n_freqs"])
        self._freq_history.clear()
        self._freq_history.extend(freqs.reshape(n, -1) if n or freqs.size else [])
        self._ratio_history.clear()
        self._ratio_history.extend(state["ratios"].tolist())

    def record_collection(self, collected_freqs: np.ndarray) -> None:
        self._freq_history.append(np.asarray(collected_freqs, dtype=float))

    def record_significant_ratio(self, ratio: float) -> None:
        self._ratio_history.append(float(np.clip(ratio, 0.0, 1.0)))

    def deviation(self) -> float:
        """``Dev_t`` (Eq. 9): drift of the latest stats from the recent mean.

        Returns 0 until at least two collection rounds exist.
        """
        if len(self._freq_history) < 2:
            return 0.0
        latest = self._freq_history[-1]
        past = list(self._freq_history)[:-1]
        mean_past = np.mean(np.stack(past, axis=0), axis=0)
        return float(np.abs(latest - mean_past).sum())

    def mean_significant_ratio(self) -> float:
        """Mean of the last κ values of ``|S*_i| / |S|``; 0 when empty."""
        if not self._ratio_history:
            return 0.0
        return float(np.mean(self._ratio_history))


def adaptive_portion(
    context: AllocationContext,
    w: int,
    alpha: float = DEFAULT_ALPHA,
    p_max: float = DEFAULT_P_MAX,
    p_floor: Optional[float] = None,
) -> float:
    """Eq. 10 with a bootstrap floor.

    The raw Eq. 10 portion vanishes when ``Dev_t = 0`` — which is always the
    case before two collection rounds exist, and whenever the model went
    stale (no fresh statistics ⇒ Dev stays 0 ⇒ no statistics ever again, an
    absorbing state).  A small floor of ``1/(2w)`` — half the uniform
    allocation, configurable — keeps the deviation signal fed while still
    letting the adaptive rule spend well below Uniform on steady streams.
    """
    if p_floor is None:
        p_floor = 1.0 / (2.0 * w)
    dev = context.deviation()
    ratio = context.mean_significant_ratio()
    p = (alpha / w) * (1.0 - ratio) * math.log(dev + 1.0)
    return float(min(max(p, p_floor), p_max))


# ---------------------------------------------------------------------- #
# budget division
# ---------------------------------------------------------------------- #
class BudgetAllocator(abc.ABC):
    """Chooses the per-timestamp budget ``ε_t`` under budget division."""

    name = "base"

    def __init__(self, epsilon: float, w: int) -> None:
        # The tracker validates the window contract (finite ε > 0, w >= 1).
        self.tracker = SlidingBudgetTracker(epsilon, w)
        self.epsilon, self.w = self.tracker.epsilon, self.tracker.w

    @abc.abstractmethod
    def propose(self, t: int, context: AllocationContext) -> float:
        """Budget to spend at timestamp ``t`` (0 means skip the collection)."""

    def commit(self, epsilon_t: float) -> None:
        """Record the actually spent budget and slide the window.

        The tracker refuses an ``ε_t`` that would overrun the window, so
        every budget schedule is window-checked — which is what lets the
        curator account budget division per round
        (:class:`~repro.ldp.accountant.ScheduleLedger`).
        """
        self.tracker.commit(epsilon_t)


class AdaptiveBudgetAllocator(BudgetAllocator):
    """Portion-based adaptive allocation over the remaining window budget."""

    name = "adaptive"

    def __init__(
        self,
        epsilon: float,
        w: int,
        alpha: float = DEFAULT_ALPHA,
        p_max: float = DEFAULT_P_MAX,
        p_floor: Optional[float] = None,
    ) -> None:
        super().__init__(epsilon, w)
        self.alpha = float(alpha)
        self.p_max = float(p_max)
        self.p_floor = p_floor

    def propose(self, t: int, context: AllocationContext) -> float:
        if t == 0:
            # Initialisation round mirrors Algorithm 1: spend 1/w of ε.
            return self.epsilon / self.w
        p = adaptive_portion(context, self.w, self.alpha, self.p_max, self.p_floor)
        return p * self.tracker.remaining


class UniformBudgetAllocator(BudgetAllocator):
    """``ε_i = ε / w`` at every timestamp."""

    name = "uniform"

    def propose(self, t: int, context: AllocationContext) -> float:
        return self.epsilon / self.w


class SampleBudgetAllocator(BudgetAllocator):
    """Entire budget on the first timestamp of each window, 0 elsewhere."""

    name = "sample"

    def propose(self, t: int, context: AllocationContext) -> float:
        if t % self.w == 0:
            return self.epsilon
        return 0.0


# ---------------------------------------------------------------------- #
# population division
# ---------------------------------------------------------------------- #
class PopulationAllocator(abc.ABC):
    """Chooses the reporting fraction ``p_t`` of the active-user set."""

    name = "base"

    def __init__(self, w: int) -> None:
        if w < 1:
            raise ConfigurationError(f"window size w must be >= 1, got {w}")
        self.w = int(w)

    @abc.abstractmethod
    def propose(self, t: int, context: AllocationContext) -> float:
        """Fraction of active users to sample at ``t`` (in [0, 1])."""


class AdaptivePopulationAllocator(PopulationAllocator):
    """Eq. 10 applied to the active-user population (RetraSyn_p)."""

    name = "adaptive"

    def __init__(
        self,
        w: int,
        alpha: float = DEFAULT_ALPHA,
        p_max: float = DEFAULT_P_MAX,
        p_floor: Optional[float] = None,
    ) -> None:
        super().__init__(w)
        self.alpha = float(alpha)
        self.p_max = float(p_max)
        self.p_floor = p_floor

    def propose(self, t: int, context: AllocationContext) -> float:
        if t == 0:
            # Algorithm 1 line 2: sample 1/w of the users to initialise.
            return 1.0 / self.w
        return adaptive_portion(context, self.w, self.alpha, self.p_max, self.p_floor)


class UniformPopulationAllocator(PopulationAllocator):
    """``p = 1 / w`` at every timestamp."""

    name = "uniform"

    def propose(self, t: int, context: AllocationContext) -> float:
        return 1.0 / self.w


class SamplePopulationAllocator(PopulationAllocator):
    """All active users report on the first timestamp of each window."""

    name = "sample"

    def propose(self, t: int, context: AllocationContext) -> float:
        if t % self.w == 0:
            return 1.0
        return 0.0


def make_budget_allocator(
    name: str, epsilon: float, w: int, **kwargs
) -> BudgetAllocator:
    """Factory for budget-division allocators by name."""
    table = {
        "adaptive": AdaptiveBudgetAllocator,
        "uniform": UniformBudgetAllocator,
        "sample": SampleBudgetAllocator,
    }
    if name not in table:
        raise ConfigurationError(f"unknown budget allocator {name!r}")
    if name != "adaptive":
        kwargs = {}
    return table[name](epsilon, w, **kwargs)


def make_population_allocator(name: str, w: int, **kwargs) -> PopulationAllocator:
    """Factory for population-division allocators by name."""
    table = {
        "adaptive": AdaptivePopulationAllocator,
        "uniform": UniformPopulationAllocator,
        "sample": SamplePopulationAllocator,
    }
    if name not in table:
        raise ConfigurationError(f"unknown population allocator {name!r}")
    if name != "adaptive":
        kwargs = {}
    return table[name](w, **kwargs)
