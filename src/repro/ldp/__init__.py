"""Local differential privacy substrate.

Implements the frequency-oracle protocols the paper builds on (Section II-A):

* :class:`~repro.ldp.oue.OptimizedUnaryEncoding` — the paper's FO of choice
  (optimal variance, Wang et al. USENIX Security 2017).
* :class:`~repro.ldp.grr.GeneralizedRandomizedResponse` and
  :class:`~repro.ldp.olh.OptimizedLocalHashing` — standard alternatives used
  for cross-validation in tests and ablation benches.

plus two privacy-ledger engines that record every user's per-timestamp
budget spend and *verify* the w-event LDP guarantee (Definition 3 /
Theorem 3): the dict-based :class:`~repro.ldp.accountant.PrivacyAccountant`
the baselines keep, and the vectorized
:class:`~repro.ldp.accountant.ColumnarPrivacyAccountant` that
:func:`~repro.ldp.accountant.make_accountant` builds for the RetraSyn
curator.
"""

from repro.ldp.freq_oracle import FrequencyOracle
from repro.ldp.oue import OptimizedUnaryEncoding, oue_variance
from repro.ldp.grr import GeneralizedRandomizedResponse
from repro.ldp.olh import OptimizedLocalHashing
from repro.ldp.accountant import (
    ACCOUNTANT_MODES,
    ColumnarPrivacyAccountant,
    PrivacyAccountant,
    make_accountant,
)

__all__ = [
    "FrequencyOracle",
    "OptimizedUnaryEncoding",
    "oue_variance",
    "GeneralizedRandomizedResponse",
    "OptimizedLocalHashing",
    "PrivacyAccountant",
    "ColumnarPrivacyAccountant",
    "ACCOUNTANT_MODES",
    "make_accountant",
]
