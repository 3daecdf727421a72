"""Both ledger engines, one pipeline behaviour.

The ledger engines never touch the RNG, so for a fixed seed the pipeline
must synthesize *bit-identical* streams with the curator's columnar ledger
and with the dict ledger ``tests/reference`` installs in its place —
across shard counts (K=1, K=4) — while the two ledgers reach the same
audit verdicts.  A second group pins the
checkpoint round trip of the columnar accounting plane: slot table and
ring buffer survive a save → resume with shared identity intact and the
resumed stream continues bit-for-bit.
"""

import pytest

from repro.core.online import OnlineRetraSyn
from repro.core.persistence import load_checkpoint, save_checkpoint
from repro.core.retrasyn import RetraSyn, RetraSynConfig
from repro.datasets.synthetic import make_random_walks
from repro.exceptions import PrivacyBudgetError
from repro.ldp.accountant import ColumnarPrivacyAccountant, PrivacyAccountant

from reference.ledger import object_ledger_installed


@pytest.fixture(scope="module")
def stream():
    return make_random_walks(k=4, n_streams=120, n_timestamps=18, seed=9)


def _fingerprint(run):
    return [(tr.start_time, list(tr.cells)) for tr in run.synthetic.trajectories]


def _run(stream, **overrides):
    cfg = RetraSynConfig(epsilon=1.0, w=5, seed=11, **overrides)
    return RetraSyn(cfg).run(stream)


def _run_both(stream, **overrides):
    """``(object_run, columnar_run)`` of one config: the dict ledger, then
    the curator's own."""
    with object_ledger_installed():
        obj = _run(stream, **overrides)
    return obj, _run(stream, **overrides)


class TestPipelineEquivalence:
    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({}, id="K1"),
            pytest.param({"n_shards": 4}, id="K4"),
        ],
    )
    def test_bit_identical_streams_both_modes(self, stream, overrides):
        obj, col = _run_both(stream, **overrides)
        assert isinstance(obj.accountant, PrivacyAccountant)
        assert isinstance(col.accountant, ColumnarPrivacyAccountant)
        assert _fingerprint(obj) == _fingerprint(col)
        # Population division spends the full ε per report: window totals
        # are single-term sums, so the audit surfaces match exactly.
        assert obj.accountant.summary() == col.accountant.summary()
        assert sorted(obj.accountant.user_ids()) == sorted(
            col.accountant.user_ids()
        )

    def test_budget_division_equivalent(self, stream):
        obj, col = _run_both(stream, division="budget")
        assert _fingerprint(obj) == _fingerprint(col)
        so, sc = obj.accountant.summary(), col.accountant.summary()
        assert so["n_users"] == sc["n_users"]
        assert so["n_violations"] == sc["n_violations"] == 0
        assert so["satisfied"] and sc["satisfied"]
        # Budget division accumulates many small ε_t per window; summation
        # order differs between the ledgers, so compare to float tolerance.
        assert so["max_window_spend"] == pytest.approx(sc["max_window_spend"])

    def test_random_allocator_equivalent(self, stream):
        obj, col = _run_both(stream, allocator="random", n_shards=4)
        assert _fingerprint(obj) == _fingerprint(col)
        assert obj.accountant.summary() == col.accountant.summary()


class TestColumnarCheckpointRoundTrip:
    """ISSUE 3 satellite: save → resume → bitwise-identical continuation."""

    @pytest.fixture(scope="class")
    def data(self):
        return make_random_walks(k=4, n_streams=90, n_timestamps=16, seed=2)

    def _step(self, curator, data, t):
        curator.process_timestep(
            t,
            participants=data.participants_at(t),
            newly_entered=data.newly_entered_at(t),
            quitted=data.quitted_at(t),
            n_real_active=data.n_active_at(t),
        )

    def _fingerprint(self, curator, data):
        syn = curator.synthetic_dataset(data.n_timestamps)
        return [(tr.start_time, list(tr.cells)) for tr in syn.trajectories]

    def test_online_columnar_plane_roundtrip(self, data, tmp_path):
        cfg = RetraSynConfig(epsilon=1.0, w=4, seed=23)  # columnar default
        ref = OnlineRetraSyn(data.grid, cfg, lam=5.0)
        for t in range(data.n_timestamps):
            self._step(ref, data, t)

        half = data.n_timestamps // 2
        first = OnlineRetraSyn(data.grid, cfg, lam=5.0)
        for t in range(half):
            self._step(first, data, t)
        path = tmp_path / "col.ckpt"
        save_checkpoint(first, path)
        pre_ws = {
            uid: first.accountant.window_spend(uid, half - 1)
            for uid in first.accountant.user_ids()
        }
        del first

        resumed = load_checkpoint(path)
        assert isinstance(resumed.accountant, ColumnarPrivacyAccountant)
        # The shared slot table must be restored as ONE object for both
        # planes, not two diverging copies.
        assert resumed.accountant._slots is resumed._shards[0].tracker._table
        assert resumed.accountant._slots is resumed._slots
        # Ledger contents survive bit-for-bit.
        for uid, ws in pre_ws.items():
            assert resumed.accountant.window_spend(uid, half - 1) == ws
        for t in range(half, data.n_timestamps):
            self._step(resumed, data, t)
        assert self._fingerprint(resumed, data) == self._fingerprint(ref, data)
        assert resumed.accountant.summary() == ref.accountant.summary()

    def test_sharded_columnar_plane_roundtrip(self, data, tmp_path):
        cfg = RetraSynConfig(epsilon=1.0, w=4, seed=23, n_shards=3)
        ref = OnlineRetraSyn(data.grid, cfg, lam=5.0)
        for t in range(data.n_timestamps):
            self._step(ref, data, t)

        half = data.n_timestamps // 2
        first = OnlineRetraSyn(data.grid, cfg, lam=5.0)
        for t in range(half):
            self._step(first, data, t)
        path = tmp_path / "shard.ckpt"
        save_checkpoint(first, path)
        del first

        resumed = load_checkpoint(path)
        for t in range(half, data.n_timestamps):
            self._step(resumed, data, t)
        assert self._fingerprint(resumed, data) == self._fingerprint(ref, data)
        assert resumed.accountant.summary() == ref.accountant.summary()

    def test_resumed_columnar_ledger_keeps_enforcing(self, data, tmp_path):
        cfg = RetraSynConfig(epsilon=1.0, w=4, seed=5)
        curator = OnlineRetraSyn(data.grid, cfg, lam=5.0)
        for t in range(6):
            self._step(curator, data, t)
        path = tmp_path / "c.ckpt"
        save_checkpoint(curator, path)
        resumed = load_checkpoint(path)
        spenders = [
            uid for uid in resumed.accountant.user_ids()
            if resumed.accountant.window_spend(uid, 5) > 0
        ]
        assert spenders
        with pytest.raises(PrivacyBudgetError):
            resumed.accountant.spend(spenders[0], 5, cfg.epsilon)
        # The refusal left the restored ledger untouched.
        assert resumed.accountant.verify()

    def test_checkpoint_is_deterministic_about_frontier(self, data, tmp_path):
        """The monotone-timestamp guard survives the round trip too."""
        from repro.exceptions import ConfigurationError

        cfg = RetraSynConfig(epsilon=1.0, w=4, seed=5)
        curator = OnlineRetraSyn(data.grid, cfg, lam=5.0)
        for t in range(5):
            self._step(curator, data, t)
        path = tmp_path / "f.ckpt"
        save_checkpoint(curator, path)
        resumed = load_checkpoint(path)
        frontier = resumed.accountant._frontier
        assert frontier is not None
        with pytest.raises(ConfigurationError):
            resumed.accountant.spend(1, frontier - 1, 0.5)
