"""Dynamic Mobility Update: significant-transition selection (Eq. 7).

At each timestamp the curator must decide, per transition state, whether to

* **update** it with the freshly collected (perturbed) frequency — paying
  the perturbation error ``Err_upd = Var_OUE(ε_t, n_t)`` (paper Eq. 3), or
* **approximate** it with the extant model value — paying the approximation
  error ``Err_app = |f̃_ij − f_ij|²``, estimated as ``|f̃_ij − f̂_ij|²``
  because the true frequency is unavailable under LDP.

Equation 7 minimises the total error ``Σ x·Err_upd + Σ (1−x)·Err_app`` over
binary indicators ``x``.  The objective is separable per state, so the exact
optimum is the simple rule *select iff the estimated approximation error
exceeds the perturbation variance*; :meth:`DMUSelector.select` implements
that closed form and a brute-force optimiser is kept for verification in
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from repro.ldp.oue import oue_variance


@dataclass(frozen=True)
class DMUDecision:
    """Outcome of one DMU round."""

    selected: np.ndarray  # dense indices of significant transitions
    mask: np.ndarray  # boolean mask over the full state space
    err_update: float  # per-state perturbation variance used for the rule
    total_error: float  # value of the Eq. 7 objective at the optimum

    @property
    def n_selected(self) -> int:
        return int(self.mask.sum())


class DMUSelector:
    """Selects significant transitions given model and fresh estimates."""

    def select(
        self,
        model_freqs: np.ndarray,
        collected_freqs: np.ndarray,
        epsilon_t: float,
        n_reporters: int,
    ) -> DMUDecision:
        """Solve Eq. 7 exactly.

        Parameters
        ----------
        model_freqs:
            Extant model frequencies ``f̃`` over the full state space.
        collected_freqs:
            Freshly collected (debiased) frequency estimates ``f̂``.
        epsilon_t:
            Privacy budget used for this collection round.
        n_reporters:
            Number of users whose reports back the estimates.
        """
        model_freqs = np.asarray(model_freqs, dtype=float)
        collected_freqs = np.asarray(collected_freqs, dtype=float)
        if model_freqs.shape != collected_freqs.shape:
            raise ValueError(
                f"shape mismatch: model {model_freqs.shape} vs "
                f"collected {collected_freqs.shape}"
            )
        err_upd = oue_variance(epsilon_t, n_reporters)
        err_app = (model_freqs - collected_freqs) ** 2
        mask = err_app > err_upd
        total = float(np.where(mask, err_upd, err_app).sum())
        return DMUDecision(
            selected=np.flatnonzero(mask),
            mask=mask,
            err_update=float(err_upd),
            total_error=total,
        )

    def brute_force(
        self,
        model_freqs: np.ndarray,
        collected_freqs: np.ndarray,
        epsilon_t: float,
        n_reporters: int,
    ) -> DMUDecision:
        """Exhaustive minimiser of Eq. 7 — test oracle for tiny spaces only."""
        model_freqs = np.asarray(model_freqs, dtype=float)
        collected_freqs = np.asarray(collected_freqs, dtype=float)
        d = model_freqs.size
        if d > 16:
            raise ValueError("brute force is exponential; use select() instead")
        err_upd = oue_variance(epsilon_t, n_reporters)
        err_app = (model_freqs - collected_freqs) ** 2
        best_mask: np.ndarray | None = None
        best_total = np.inf
        for bits in product((False, True), repeat=d):
            mask = np.asarray(bits)
            total = float(np.where(mask, err_upd, err_app).sum())
            if total < best_total:
                best_total = total
                best_mask = mask
        assert best_mask is not None
        return DMUDecision(
            selected=np.flatnonzero(best_mask),
            mask=best_mask,
            err_update=float(err_upd),
            total_error=best_total,
        )
