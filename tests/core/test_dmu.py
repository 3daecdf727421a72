"""Tests for the DMU significant-transition selection (Eq. 7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dmu import DMUSelector
from repro.ldp.oue import oue_variance


@pytest.fixture
def selector():
    return DMUSelector()


class TestClosedForm:
    def test_selects_large_drift(self, selector):
        model = np.array([0.5, 0.5, 0.5])
        collected = np.array([0.5, 0.9, 0.500001])
        d = selector.select(model, collected, epsilon_t=1.0, n_reporters=10_000)
        # Position 1 drifted by 0.4; variance at n=10k is tiny.
        assert 1 in d.selected
        assert 2 not in d.selected

    def test_high_noise_selects_nothing(self, selector):
        model = np.array([0.5, 0.1])
        collected = np.array([0.6, 0.3])
        # Two reporters: OUE variance is enormous; approximation wins.
        d = selector.select(model, collected, epsilon_t=0.5, n_reporters=2)
        assert d.n_selected == 0

    def test_rule_is_variance_threshold(self, selector):
        eps, n = 1.0, 100
        var = oue_variance(eps, n)
        delta = np.sqrt(var)
        model = np.array([0.5, 0.5])
        collected = np.array([0.5 + 0.5 * delta, 0.5 + 2.0 * delta])
        d = selector.select(model, collected, eps, n)
        assert not d.mask[0]  # below threshold
        assert d.mask[1]  # above threshold

    def test_total_error_value(self, selector):
        model = np.array([0.0, 0.0])
        collected = np.array([1.0, 0.0])
        eps, n = 1.0, 1000
        var = oue_variance(eps, n)
        d = selector.select(model, collected, eps, n)
        # Position 0 selected (pay var), position 1 approximated (pay 0).
        assert d.total_error == pytest.approx(var)

    def test_shape_mismatch(self, selector):
        with pytest.raises(ValueError):
            selector.select(np.zeros(3), np.zeros(4), 1.0, 10)

    def test_decision_fields_consistent(self, selector, rng):
        model = rng.random(50)
        collected = rng.random(50)
        d = selector.select(model, collected, 1.0, 200)
        assert d.n_selected == d.selected.size
        assert np.array_equal(np.flatnonzero(d.mask), d.selected)
        assert d.err_update == pytest.approx(oue_variance(1.0, 200))


class TestOptimality:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(5, 5000),
        eps=st.floats(0.2, 3.0),
        d=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed, n, eps, d):
        """The separable closed form must equal the exhaustive optimum."""
        selector = DMUSelector()
        rng = np.random.default_rng(seed)
        model = rng.random(d)
        collected = rng.random(d)
        fast = selector.select(model, collected, eps, n)
        brute = selector.brute_force(model, collected, eps, n)
        assert fast.total_error == pytest.approx(brute.total_error)

    def test_brute_force_refuses_large_spaces(self, selector):
        with pytest.raises(ValueError):
            selector.brute_force(np.zeros(20), np.zeros(20), 1.0, 10)


class TestErrorMonotonicity:
    def test_more_reporters_more_selection(self, selector, rng):
        """Lower perturbation noise should never shrink the selection."""
        model = rng.random(100)
        collected = rng.random(100)
        small = selector.select(model, collected, 1.0, 50)
        large = selector.select(model, collected, 1.0, 5000)
        assert set(small.selected.tolist()) <= set(large.selected.tolist())

    def test_higher_epsilon_more_selection(self, selector, rng):
        model = rng.random(100)
        collected = rng.random(100)
        low = selector.select(model, collected, 0.3, 500)
        high = selector.select(model, collected, 3.0, 500)
        assert set(low.selected.tolist()) <= set(high.selected.tolist())
