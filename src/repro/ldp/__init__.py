"""Local differential privacy substrate.

Implements the frequency oracle the paper builds on (Section II-A),
:class:`~repro.ldp.oue.OptimizedUnaryEncoding` (optimal variance, Wang et
al. USENIX Security 2017), plus the privacy ledgers that record budget
spends and *verify* the w-event LDP guarantee (Definition 3 / Theorem 3).
The RetraSyn curator picks between two with
:func:`~repro.ldp.accountant.make_ledger` — the O(w)
:class:`~repro.ldp.accountant.ScheduleLedger` under budget division, whose
reporters all spend the same ε_t once per round, and the per-user
:class:`~repro.ldp.accountant.ColumnarPrivacyAccountant` (built by
:func:`~repro.ldp.accountant.make_accountant`) under population division.
The baselines keep the per-user columnar ledger too; the dict ledger the
two are checked against is a test oracle (``tests/reference/ledger.py``).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "OptimizedUnaryEncoding": "oue",
    "oue_variance": "oue",
    "ColumnarPrivacyAccountant": "accountant",
    "ScheduleLedger": "accountant",
    "ACCOUNTANT_MODES": "accountant",
    "make_accountant": "accountant",
    "make_ledger": "accountant",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
