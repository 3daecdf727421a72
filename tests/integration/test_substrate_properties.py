"""Additional hypothesis property tests on the substrates."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geo.trajectory import CellTrajectory
from repro.ldp.oue import OptimizedUnaryEncoding, oue_variance
from repro.stream.stream import split_on_gaps

from reference.ledger import PrivacyAccountant

relaxed = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestOUEProperties:
    @given(
        d=st.integers(2, 40),
        eps=st.floats(0.2, 4.0),
        seed=st.integers(0, 10_000),
    )
    @relaxed
    def test_estimated_counts_sum_near_n(self, d, eps, seed):
        """Debiased counts are unbiased, so their total concentrates on n."""
        n = 400
        rng = np.random.default_rng(seed)
        values = rng.integers(0, d, size=n)
        est = OptimizedUnaryEncoding(d, eps, rng=seed).collect(values)
        # Paper Eq. 3 (oue_variance) is the f -> 0 approximation: only the
        # q-noise of the n - n_i non-reporters.  For small domains the
        # reporters' own p(1-p) flip noise dominates (at d=2 every element
        # holds half the population), so bound with the exact debiased
        # count variance per element instead.
        p, q = 0.5, 1.0 / (np.exp(eps) + 1.0)
        counts = np.bincount(values, minlength=d).astype(float)
        var = (counts * p * (1 - p) + (n - counts) * q * (1 - q)) / (p - q) ** 2
        sigma_total = np.sqrt(var.sum())
        assert sigma_total >= np.sqrt(d * oue_variance(eps, n)) * n * 0.99
        assert abs(est.sum() - n) < 6 * sigma_total + 1e-9

    @given(d=st.integers(2, 30), eps=st.floats(0.2, 4.0))
    @relaxed
    def test_domain_positions_symmetric(self, d, eps):
        """No domain position is privileged: zero-frequency positions have
        identical estimate distributions (spot-check the mean)."""
        n = 300
        runs = np.stack([
            OptimizedUnaryEncoding(d, eps, rng=i).collect([0] * n)
            for i in range(30)
        ])
        means = runs.mean(axis=0)[1:]  # all true-zero positions
        spread = means.max() - means.min()
        assert spread < 0.8 * n  # loose; catches systematic bias only


class TestAccountantProperties:
    @given(
        spends=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 30), st.floats(0.0, 0.3)),
            max_size=60,
        ),
        w=st.integers(1, 8),
    )
    @relaxed
    def test_non_strict_verify_matches_manual_check(self, spends, w):
        """verify() must agree with a brute-force window check."""
        eps = 1.0
        acc = PrivacyAccountant(eps, w, strict=False)
        ledger: dict[int, list[tuple[int, float]]] = {}
        for uid, t, amount in spends:
            acc.spend(uid, t, amount)
            ledger.setdefault(uid, []).append((t, amount))

        def manual_ok() -> bool:
            for uid, records in ledger.items():
                times = sorted({t for t, _a in records})
                for t0 in times:
                    total = sum(
                        a for t, a in records if t0 <= t <= t0 + w - 1
                    )
                    if total > eps + 1e-9:
                        return False
            return True

        assert acc.verify() == manual_ok()

    @given(
        amounts=st.lists(st.floats(0.01, 0.2), min_size=1, max_size=40),
        w=st.integers(2, 6),
    )
    @relaxed
    def test_strict_mode_never_admits_violation(self, amounts, w):
        from repro.exceptions import PrivacyBudgetError

        acc = PrivacyAccountant(1.0, w, strict=True)
        for t, a in enumerate(amounts):
            try:
                acc.spend(0, t, a)
            except PrivacyBudgetError:
                pass
        assert acc.verify()


class TestSplitOnGapsProperties:
    @given(
        times=st.lists(st.integers(0, 60), min_size=1, max_size=40, unique=True),
        seed=st.integers(0, 1000),
    )
    @relaxed
    def test_streams_partition_the_reports(self, times, seed):
        """Every report lands in exactly one stream, order preserved,
        no stream contains a time gap."""
        rng = np.random.default_rng(seed)
        times = sorted(times)
        cells = rng.integers(0, 16, size=len(times))
        streams = split_on_gaps(0, list(zip(times, cells.tolist())))
        # Reconstruct (time, cell) pairs from the streams.
        rebuilt = []
        for s in streams:
            for i, c in enumerate(s.cells):
                rebuilt.append((s.start_time + i, c))
        assert rebuilt == list(zip(times, cells.tolist()))
        # Gap-free within each stream by construction of rebuilt times.
        for s in streams:
            assert len(s) >= 1


class TestTrajectoryProperties:
    @given(
        start=st.integers(0, 20),
        cells=st.lists(st.integers(0, 15), min_size=1, max_size=30),
        lo=st.integers(0, 50),
        span=st.integers(0, 50),
    )
    @relaxed
    def test_subsequence_is_contiguous_slice(self, start, cells, lo, span):
        traj = CellTrajectory(start, cells)
        sub = traj.subsequence(lo, lo + span)
        assert len(sub) <= len(cells)
        if sub:
            # The subsequence must appear contiguously in the cells.
            joined = ",".join(map(str, cells))
            assert ",".join(map(str, sub)) in joined
