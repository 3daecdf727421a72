"""The baselines' exact output, pinned.

The golden SHA-256 digests below were computed at commit 6022433, where
the baselines still scanned ``StreamDataset.participants_at`` for their
reports, encoded them one ``TransitionState`` at a time and spent into the
dict ledger.  They now read ``ColumnarStreamView`` batches and spend into
the columnar ledger; the digests pin that move to bit-identical output
(the oracles draw the same randomness, and the shuffle of the population
strategies permutes row indices exactly as it permuted the pairs).

The second half runs each baseline again with the dict reference ledger
installed as its ledger and checks the two runs agree on output and audit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.baselines.ldp_ids import make_baseline
from repro.baselines.ldptrace import LDPTraceConfig, LDPTraceSynthesizer
from repro.ldp.accountant import ColumnarPrivacyAccountant

from reference.ledger import object_ledger_installed

#: (synthetic cells, start times, reporters per t) of the four LDP-IDS
#: strategies on ``walk_data`` with ε=1, w=4, seed 0.
GOLDEN = {
    "lbd": ("a742b965738f55be2bc87cb2134ad6a6eda83563c98fb452d29bbf758c4afac2",
            "63ec4e51dc28c12e3e6f85f1111d3fcb8574ddadc6d35e59b899b9f4a9baa490",
            "2693235e2f619c1d665185a24f57703152730c6eeebf9bcb6a97449391d98ffa"),
    "lba": ("ca812202752210a96f0e150019753e51fcfb6d9ca22aa30480e0283fab5a1ad2",
            "63ec4e51dc28c12e3e6f85f1111d3fcb8574ddadc6d35e59b899b9f4a9baa490",
            "2693235e2f619c1d665185a24f57703152730c6eeebf9bcb6a97449391d98ffa"),
    "lpd": ("2fcbebc0e84ec7453ae1088622b2448943aa7ac508891aa1368d36b63a48b4a4",
            "63ec4e51dc28c12e3e6f85f1111d3fcb8574ddadc6d35e59b899b9f4a9baa490",
            "e5983032e9deef5a2fbc4041726740786d30559f07d192d6c1ab0da52a9d9679"),
    "lpa": ("b7952f005abc32bab9dd4773bc40183896cdbeee9cae2359240c7a420c715dd5",
            "63ec4e51dc28c12e3e6f85f1111d3fcb8574ddadc6d35e59b899b9f4a9baa490",
            "32849bd0c481205c6947ee28111e73d0548f5f7af3f933bb0cee8f695a468233"),
}

#: (synthetic cells, start times) of LDPTrace on ``walk_data`` with ε=1,
#: seed 0.
GOLDEN_LDPTRACE = (
    "c83fc11d99b20b29aef23121e685b1d00b444e6252d8e8842c12ead6d72a6bc4",
    "bfee18b4271f3b4896cbb3914aed6fe788a14f9c50d49b7a57a90366b63c36c6",
)


def _digest(arrays) -> str:
    """SHA-256 over int64 arrays, each prefixed by its length."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a, dtype=np.int64)
        h.update(np.int64(a.size).tobytes())
        h.update(a.tobytes())
    return h.hexdigest()


def _fingerprint(synthetic, reporters=None) -> tuple:
    trajs = synthetic.trajectories
    out = (
        _digest(t.cells for t in trajs),
        _digest([[t.start_time for t in trajs]]),
    )
    return out if reporters is None else out + (_digest([reporters]),)


def _ldp_ids(walk_data, strategy):
    return make_baseline(strategy, epsilon=1.0, w=4, seed=0).run(walk_data)


def _ldptrace(walk_data):
    return LDPTraceSynthesizer(LDPTraceConfig(epsilon=1.0, seed=0)).run(walk_data)


def _assert_same_audit(columnar, reference):
    a, b = columnar.summary(), reference.summary()
    assert abs(a.pop("max_window_spend") - b.pop("max_window_spend")) <= 1e-12
    assert a == b


@pytest.mark.parametrize("strategy", sorted(GOLDEN))
class TestLdpIds:
    def test_output_matches_golden(self, walk_data, strategy):
        run = _ldp_ids(walk_data, strategy)
        assert _fingerprint(run.synthetic, run.reporters_per_timestamp) == GOLDEN[strategy]

    def test_dict_ledger_agrees(self, walk_data, strategy):
        run = _ldp_ids(walk_data, strategy)
        with object_ledger_installed() as dict_ledger:
            ref = _ldp_ids(walk_data, strategy)
        assert isinstance(run.accountant, ColumnarPrivacyAccountant)
        assert isinstance(ref.accountant, dict_ledger)
        assert _fingerprint(ref.synthetic, ref.reporters_per_timestamp) == GOLDEN[strategy]
        _assert_same_audit(run.accountant, ref.accountant)


class TestLdpTrace:
    def test_output_matches_golden(self, walk_data):
        assert _fingerprint(_ldptrace(walk_data).synthetic) == GOLDEN_LDPTRACE

    def test_dict_ledger_agrees(self, walk_data):
        rel = _ldptrace(walk_data)
        with object_ledger_installed() as dict_ledger:
            ref = _ldptrace(walk_data)
        assert isinstance(rel.accountant, ColumnarPrivacyAccountant)
        assert rel.accountant.w == 1
        assert isinstance(ref.accountant, dict_ledger)
        assert _fingerprint(ref.synthetic) == GOLDEN_LDPTRACE
        _assert_same_audit(rel.accountant, ref.accountant)
        uids = ref.accountant.user_ids()
        assert sorted(rel.accountant.user_ids()) == sorted(uids)
        assert [rel.accountant.total_spend(u) for u in uids] == [
            ref.accountant.total_spend(u) for u in uids
        ]
