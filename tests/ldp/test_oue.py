"""Tests for the OUE frequency oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, DomainError
from repro.ldp.oue import OptimizedUnaryEncoding, oue_variance

from reference.oue import collect_loop, simulate_ones_loop


class TestParameters:
    def test_flip_probabilities(self):
        oue = OptimizedUnaryEncoding(10, epsilon=1.0, rng=0)
        assert oue.p == 0.5
        assert oue.q == pytest.approx(1.0 / (np.e + 1.0))

    def test_q_decreases_with_epsilon(self):
        q1 = OptimizedUnaryEncoding(10, 0.5, rng=0).q
        q2 = OptimizedUnaryEncoding(10, 2.0, rng=0).q
        assert q2 < q1

    def test_invalid_epsilon(self):
        with pytest.raises(ConfigurationError):
            OptimizedUnaryEncoding(10, 0.0)
        with pytest.raises(ConfigurationError):
            OptimizedUnaryEncoding(10, -1.0)
        with pytest.raises(ConfigurationError):
            OptimizedUnaryEncoding(10, float("inf"))

    def test_invalid_domain(self):
        with pytest.raises(ConfigurationError):
            OptimizedUnaryEncoding(0, 1.0)

    def test_invalid_mode(self):
        with pytest.raises(ConfigurationError):
            OptimizedUnaryEncoding(10, 1.0, mode="bogus")


class TestVariance:
    def test_paper_equation_3(self):
        # Var = 4 e^eps / (n (e^eps - 1)^2)
        eps, n = 1.0, 1000
        expected = 4 * np.e / (n * (np.e - 1) ** 2)
        assert oue_variance(eps, n) == pytest.approx(expected)

    def test_decreases_in_n_and_epsilon(self):
        assert oue_variance(1.0, 2000) < oue_variance(1.0, 1000)
        assert oue_variance(2.0, 1000) < oue_variance(1.0, 1000)

    def test_zero_users_infinite(self):
        assert oue_variance(1.0, 0) == float("inf")


class TestUserSide:
    def test_perturb_one_shape(self):
        oue = OptimizedUnaryEncoding(8, 1.0, rng=0)
        vec = oue.perturb_one(3)
        assert vec.shape == (8,)
        assert set(np.unique(vec)).issubset({0, 1})

    def test_perturb_many_shape(self):
        oue = OptimizedUnaryEncoding(8, 1.0, rng=0)
        mat = oue.perturb_many([0, 1, 2, 3])
        assert mat.shape == (4, 8)

    def test_out_of_domain_value(self):
        oue = OptimizedUnaryEncoding(8, 1.0, rng=0)
        with pytest.raises(DomainError):
            oue.perturb_many([8])
        with pytest.raises(DomainError):
            oue.perturb_many([-1])

    def test_true_bit_kept_half_the_time(self):
        oue = OptimizedUnaryEncoding(4, 1.0, rng=0)
        mat = oue.perturb_many([2] * 4000)
        assert mat[:, 2].mean() == pytest.approx(0.5, abs=0.03)

    def test_false_bits_flip_at_q(self):
        oue = OptimizedUnaryEncoding(4, 1.0, rng=0)
        mat = oue.perturb_many([2] * 4000)
        assert mat[:, 0].mean() == pytest.approx(oue.q, abs=0.03)


class TestCuratorSide:
    def test_unbiasedness_exact_mode(self):
        values = [0] * 600 + [1] * 300 + [2] * 100
        runs = np.stack([
            OptimizedUnaryEncoding(5, 2.0, rng=i, mode="exact").collect(values)
            for i in range(60)
        ])
        mean_est = runs.mean(axis=0)
        assert mean_est[0] == pytest.approx(600, abs=40)
        assert mean_est[1] == pytest.approx(300, abs=40)
        assert mean_est[4] == pytest.approx(0, abs=40)

    def test_unbiasedness_fast_mode(self):
        values = [0] * 600 + [1] * 300 + [2] * 100
        runs = np.stack([
            OptimizedUnaryEncoding(5, 2.0, rng=i, mode="fast").collect(values)
            for i in range(60)
        ])
        mean_est = runs.mean(axis=0)
        assert mean_est[0] == pytest.approx(600, abs=40)
        assert mean_est[2] == pytest.approx(100, abs=40)

    def test_fast_and_exact_same_distribution(self):
        """Fast mode must match exact mode in mean and spread."""
        values = [0] * 400 + [3] * 600
        exact = np.stack([
            OptimizedUnaryEncoding(6, 1.0, rng=i, mode="exact").collect(values)
            for i in range(80)
        ])
        fast = np.stack([
            OptimizedUnaryEncoding(6, 1.0, rng=1000 + i, mode="fast").collect(values)
            for i in range(80)
        ])
        assert exact.mean(axis=0) == pytest.approx(fast.mean(axis=0), abs=60)
        # Std per position should agree within sampling error.
        assert exact.std(axis=0) == pytest.approx(fast.std(axis=0), rel=0.5)

    def test_empirical_variance_matches_equation(self):
        n, eps, d = 800, 1.0, 4
        freqs = np.stack([
            OptimizedUnaryEncoding(d, eps, rng=i).collect([0] * n) / n
            for i in range(200)
        ])
        # Position 1 has true frequency 0; its estimator variance is Eq. 3.
        emp = freqs[:, 1].var()
        assert emp == pytest.approx(oue_variance(eps, n), rel=0.35)

    def test_empty_input(self):
        oue = OptimizedUnaryEncoding(5, 1.0, rng=0)
        assert np.all(oue.collect([]) == 0)

    def test_aggregate_rejects_bad_shape(self):
        oue = OptimizedUnaryEncoding(5, 1.0, rng=0)
        with pytest.raises(ConfigurationError):
            oue.aggregate(np.zeros((3, 4)))

    def test_split_round_trip_matches_collect(self):
        """simulate_ones + debias == collect for the same RNG stream."""
        values = [1, 2, 3] * 50
        a = OptimizedUnaryEncoding(5, 1.0, rng=7)
        ones = a.simulate_ones(values)
        est_split = a.debias(ones, len(values))
        b = OptimizedUnaryEncoding(5, 1.0, rng=7)
        est_direct = b.collect(values)
        assert est_split == pytest.approx(est_direct)


class TestBatchedExactMode:
    """The batched exact path must match the per-user reference loop."""

    def test_batched_and_loop_same_distribution(self):
        values = [0] * 300 + [2] * 500 + [5] * 200
        batched = np.stack([
            OptimizedUnaryEncoding(6, 1.0, rng=i, mode="exact").collect(values)
            for i in range(80)
        ])
        loop = np.stack([
            collect_loop(OptimizedUnaryEncoding(6, 1.0, rng=5000 + i), values)
            for i in range(80)
        ])
        assert batched.mean(axis=0) == pytest.approx(loop.mean(axis=0), abs=60)
        assert batched.std(axis=0) == pytest.approx(loop.std(axis=0), rel=0.5)

    def test_batched_unbiased(self):
        values = [1] * 700 + [3] * 300
        runs = np.stack([
            OptimizedUnaryEncoding(4, 2.0, rng=i, mode="exact").collect(values)
            for i in range(60)
        ])
        mean_est = runs.mean(axis=0)
        assert mean_est[1] == pytest.approx(700, abs=45)
        assert mean_est[3] == pytest.approx(300, abs=45)
        assert mean_est[0] == pytest.approx(0, abs=45)

    def test_chunked_accumulation_spans_batches(self, monkeypatch):
        """Forcing tiny chunks must not change the estimator's behaviour."""
        import repro.ldp.oue as oue_mod

        monkeypatch.setattr(oue_mod, "_BATCH_ELEMENTS", 16)
        values = [0] * 500 + [2] * 500
        runs = np.stack([
            OptimizedUnaryEncoding(4, 2.0, rng=i, mode="exact").collect(values)
            for i in range(40)
        ])
        assert runs.mean(axis=0)[0] == pytest.approx(500, abs=60)
        assert runs.mean(axis=0)[2] == pytest.approx(500, abs=60)

    def test_loop_mode_matches_perturb_one_stream(self):
        """The reference loop is perturb_one per user on one rng, and its
        debiased sum is what ``aggregate`` makes of the same reports."""
        values = [1, 0, 2, 2, 1]
        ones = simulate_ones_loop(OptimizedUnaryEncoding(3, 1.0, rng=11), values)
        b = OptimizedUnaryEncoding(3, 1.0, rng=11)
        reports = np.stack([b.perturb_one(v) for v in values])
        assert ones == pytest.approx(reports.sum(axis=0))
        est = collect_loop(OptimizedUnaryEncoding(3, 1.0, rng=11), values)
        assert est == pytest.approx(b.aggregate(reports))

    def test_empty_input_all_modes(self):
        for mode in ("exact", "fast"):
            oue = OptimizedUnaryEncoding(5, 1.0, rng=0, mode=mode)
            assert np.all(oue.collect([]) == 0)
        assert np.all(collect_loop(OptimizedUnaryEncoding(5, 1.0, rng=0), []) == 0)
        with pytest.raises(ConfigurationError):
            OptimizedUnaryEncoding(5, 1.0, mode="exact-loop")


class TestPrivacyProperty:
    @given(eps=st.floats(0.1, 4.0))
    @settings(max_examples=30)
    def test_flip_probability_ratio_bounded(self, eps):
        """Per-bit randomized response satisfies eps-LDP:
        the odds ratio of observing 1 under bit=1 vs bit=0 is <= e^eps."""
        oue = OptimizedUnaryEncoding(4, eps, rng=0)
        ratio_one = oue.p / oue.q
        ratio_zero = (1 - oue.q) / (1 - oue.p)
        assert ratio_one <= np.exp(eps) * (1 + 1e-9)
        assert ratio_zero <= np.exp(eps) * (1 + 1e-9)


class TestInputValidation:
    @pytest.mark.parametrize(
        "eps", [0.0, -1.0, float("inf"), float("-inf"), float("nan")]
    )
    def test_rejects_epsilon(self, eps):
        with pytest.raises(ConfigurationError):
            OptimizedUnaryEncoding(10, eps)

    @pytest.mark.parametrize("d", [0, -1, -10])
    def test_rejects_domain_size(self, d):
        with pytest.raises(ConfigurationError):
            OptimizedUnaryEncoding(d, 1.0)

    @pytest.mark.parametrize("bad", [-1, 8])
    @pytest.mark.parametrize(
        "call",
        [
            lambda o, v: o.perturb_one(v),
            lambda o, v: o.perturb_many([0, v]),
            lambda o, v: o.simulate_ones([0, v]),
            lambda o, v: o.collect([0, v]),
        ],
        ids=["perturb_one", "perturb_many", "simulate_ones", "collect"],
    )
    def test_every_entry_checks_the_domain(self, call, bad):
        with pytest.raises(DomainError):
            call(OptimizedUnaryEncoding(8, 1.0, rng=0), bad)

    @pytest.mark.parametrize("method", ["perturb_many", "simulate_ones", "collect"])
    def test_rejects_two_dimensional_values(self, method):
        oue = OptimizedUnaryEncoding(8, 1.0, rng=0)
        with pytest.raises(DomainError):
            getattr(oue, method)([[0, 1], [2, 3]])


class TestEstimates:
    @pytest.mark.parametrize("mode", ["exact", "fast"])
    def test_singleton_domain(self, mode):
        est = OptimizedUnaryEncoding(1, 1.0, rng=0, mode=mode).collect([0, 0, 0])
        assert est.shape == (1,)

    @pytest.mark.parametrize("mode", ["exact", "fast"])
    def test_estimated_frequencies_sum_near_one(self, mode):
        values = [0, 1, 2, 3, 4] * 200
        est = OptimizedUnaryEncoding(5, 4.0, rng=0, mode=mode).collect(values)
        assert est.sum() / len(values) == pytest.approx(1.0, abs=0.2)

    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 4.0])
    def test_odds_ratio_is_exactly_e_to_epsilon(self, eps):
        """OUE spends the whole budget: the worst-case likelihood ratio of
        two inputs, over the two bits they differ in, equals e^eps."""
        oue = OptimizedUnaryEncoding(4, eps, rng=0)
        ratio = (oue.p / oue.q) * ((1 - oue.q) / (1 - oue.p))
        assert ratio == pytest.approx(np.exp(eps))
