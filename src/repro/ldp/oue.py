"""Optimized Unary Encoding (OUE) — the paper's frequency oracle.

Each user's value ``x`` is one-hot encoded into a ``d``-bit vector ``V`` and
every bit is perturbed independently (paper Eq. 2)::

    Pr[V̂[i] = 1] = 1/2            if V[i] = 1
    Pr[V̂[i] = 1] = 1/(e^ε + 1)    if V[i] = 0

The curator counts ones per position and debiases with
``f̂(x) = (f'(x)/n − q) / (1/2 − q)`` where ``q = 1/(e^ε + 1)``; the estimate
is unbiased with variance ``4 e^ε / (n (e^ε − 1)^2)`` (paper Eq. 3).

Two execution modes are provided:

* ``mode="exact"`` materialises every user's perturbed bit vector — the
  literal protocol, executed *batched*: all ``n`` reports are drawn as
  ``(chunk, d)`` Bernoulli arrays and aggregated with one column-sum per
  chunk, so there is no per-user Python loop while the sampled joint
  distribution stays that of the sequential protocol (one
  :meth:`~OptimizedUnaryEncoding.perturb_one` call per user — the test
  oracle in ``tests/reference/`` that ``tests/ldp/test_oue.py`` pins the
  batched path against);
* ``mode="fast"`` samples the aggregated one-counts directly from the exact
  per-position binomial law, which is distribution-identical to summing
  ``n`` independent reports but orders of magnitude faster.  Statistical
  equivalence is property-tested in ``tests/ldp/test_oue.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError, DomainError
from repro.rng import RngLike, ensure_rng

#: Bound on ``chunk_users * domain_size`` for the batched exact path, so the
#: perturbed-bit working set stays ~tens of MB regardless of population size.
_BATCH_ELEMENTS = 4_000_000


def oue_variance(epsilon: float, n: int) -> float:
    """Paper Eq. 3: per-element frequency variance of OUE with ``n`` users."""
    if n <= 0:
        return float("inf")
    e = np.exp(epsilon)
    return float(4.0 * e / (n * (e - 1.0) ** 2))


class OptimizedUnaryEncoding:
    """OUE frequency oracle (Wang et al. 2017), see module docstring.

    Parameters
    ----------
    domain_size:
        Cardinality ``d`` of the value domain ``{0, ..., d-1}``.
    epsilon:
        Per-report privacy budget (must be positive).
    rng:
        Seed / generator used for all perturbation randomness.
    mode:
        ``"fast"`` (binomial aggregate draws) or ``"exact"`` (batched
        per-user bit vectors).
    """

    def __init__(
        self,
        domain_size: int,
        epsilon: float,
        rng: RngLike = None,
        mode: str = "fast",
    ) -> None:
        if domain_size < 1:
            raise ConfigurationError(f"domain_size must be >= 1, got {domain_size}")
        if not (epsilon > 0.0) or not np.isfinite(epsilon):
            raise ConfigurationError(f"epsilon must be a positive finite float, got {epsilon}")
        self.domain_size = int(domain_size)
        self.epsilon = float(epsilon)
        self.rng = ensure_rng(rng)
        if mode not in ("exact", "fast"):
            raise ConfigurationError(
                f"mode must be 'exact' or 'fast', got {mode!r}"
            )
        self.mode = mode
        self._p = 0.5
        self._q = 1.0 / (np.exp(self.epsilon) + 1.0)

    @property
    def p(self) -> float:
        """Probability a true 1-bit stays 1."""
        return self._p

    @property
    def q(self) -> float:
        """Probability a true 0-bit flips to 1."""
        return self._q

    def _check_values(self, values: Sequence[int]) -> np.ndarray:
        arr = np.asarray(values, dtype=np.int64)
        if arr.ndim != 1:
            raise DomainError(f"values must be one-dimensional, got shape {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() >= self.domain_size):
            raise DomainError(
                f"values must lie in [0, {self.domain_size}), got range "
                f"[{arr.min()}, {arr.max()}]"
            )
        return arr

    # ------------------------------------------------------------------ #
    # user side
    # ------------------------------------------------------------------ #
    def perturb_one(self, value: int) -> np.ndarray:
        """Produce a single user's perturbed bit vector (exact protocol)."""
        self._check_values([value])
        bits = self.rng.random(self.domain_size) < self._q
        bits[value] = self.rng.random() < self._p
        return bits.astype(np.uint8)

    def perturb_many(self, values: Sequence[int]) -> np.ndarray:
        """Perturbed bit matrix of shape ``(n, domain_size)`` (exact mode)."""
        arr = self._check_values(values)
        n = arr.size
        bits = self.rng.random((n, self.domain_size)) < self._q
        keep = self.rng.random(n) < self._p
        bits[np.arange(n), arr] = keep
        return bits.astype(np.uint8)

    # ------------------------------------------------------------------ #
    # curator side
    # ------------------------------------------------------------------ #
    def aggregate(self, reports: np.ndarray) -> np.ndarray:
        """Debias a stack of perturbed bit vectors into estimated counts."""
        reports = np.asarray(reports)
        if reports.ndim != 2 or reports.shape[1] != self.domain_size:
            raise ConfigurationError(
                f"reports must have shape (n, {self.domain_size}), got {reports.shape}"
            )
        ones = reports.sum(axis=0).astype(float)
        n = reports.shape[0]
        return self._debias(ones, n)

    def _debias(self, ones: np.ndarray, n: int) -> np.ndarray:
        if n == 0:
            return np.zeros(self.domain_size)
        return (ones - n * self._q) / (self._p - self._q)

    def simulate_ones(self, values: Sequence[int]) -> np.ndarray:
        """User-side half of the round trip: per-position one-counts.

        In ``exact`` mode every user's bit vector is materialised (in
        memory-bounded batches) and column-summed; in ``fast`` mode the sums
        are drawn directly from the per-position binomial law
        ``Binomial(true_j, p) + Binomial(n − true_j, q)``, which has exactly
        the distribution of the exact sum.
        """
        arr = self._check_values(values)
        n = arr.size
        if n == 0:
            return np.zeros(self.domain_size)
        if self.mode == "exact":
            return self._simulate_ones_batched(arr)
        true_counts = np.bincount(arr, minlength=self.domain_size)
        ones = self.rng.binomial(true_counts, self._p) + self.rng.binomial(
            n - true_counts, self._q
        )
        return ones.astype(float)

    def _simulate_ones_batched(self, arr: np.ndarray) -> np.ndarray:
        """All reports as ``(chunk, d)`` Bernoulli draws + one column-sum each.

        Semantically identical to one :meth:`perturb_one` call per user:
        each report is still an independent ``d``-bit vector with the exact
        per-bit flip probabilities; only the loop moved into numpy.
        """
        ones = np.zeros(self.domain_size, dtype=np.int64)
        chunk = max(1, _BATCH_ELEMENTS // self.domain_size)
        # float32 uniforms halve the memory traffic; the implied Bernoulli
        # probabilities differ from the float64 targets by < 2^-24, far
        # below anything observable at protocol scale.
        q32 = np.float32(self._q)
        p32 = np.float32(self._p)
        for lo in range(0, arr.size, chunk):
            part = arr[lo : lo + chunk]
            m = part.size
            bits = self.rng.random((m, self.domain_size), dtype=np.float32) < q32
            bits[np.arange(m), part] = self.rng.random(m, dtype=np.float32) < p32
            ones += bits.sum(axis=0)
        return ones.astype(float)

    def debias(self, ones: np.ndarray, n: int) -> np.ndarray:
        """Curator-side half: unbiased estimated counts from one-counts."""
        return self._debias(np.asarray(ones, dtype=float), n)

    def collect(self, values: Sequence[int]) -> np.ndarray:
        """Full round trip: perturb all users' values, debias counts.

        Returns the curator's unbiased estimated counts per domain element,
        shape ``(domain_size,)``; estimates may be negative or non-integral.
        """
        arr = self._check_values(values)
        n = arr.size
        if n == 0:
            return np.zeros(self.domain_size)
        return self._debias(self.simulate_ones(arr), n)

    def variance(self, n: int) -> float:
        """Per-element estimation variance of the frequency (count / n)."""
        return oue_variance(self.epsilon, n)
