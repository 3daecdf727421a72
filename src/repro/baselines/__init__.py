"""LDP-IDS baselines (Ren et al., SIGMOD 2022), adapted per the paper.

LDP-IDS is the state-of-the-art w-event ε-LDP *histogram* stream publisher.
Following Section V-A, it is adapted to trajectory publishing by letting it
collect transition states with its two-step private mechanism and feeding
the released statistics into the same Markov generator as RetraSyn — but
without entering/quitting modelling, dynamic user tracking, or size
adjustment.  They read their reports from the same columnar plane
(:class:`~repro.stream.reports.ColumnarStreamView`) and spend into the
same per-user ledger
(:class:`~repro.ldp.accountant.ColumnarPrivacyAccountant`) as RetraSyn.

Four strategies:

* :class:`~repro.baselines.ldp_ids.LBD` — budget division, exponentially
  decaying publication budgets;
* :class:`~repro.baselines.ldp_ids.LBA` — budget absorption: uniform
  per-timestamp publication budgets, skipped budgets absorbed later;
* :class:`~repro.baselines.ldp_ids.LPD` — population analogue of LBD;
* :class:`~repro.baselines.ldp_ids.LPA` — population analogue of LBA.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "LBD": "ldp_ids",
    "LBA": "ldp_ids",
    "LPD": "ldp_ids",
    "LPA": "ldp_ids",
    "LdpIdsConfig": "ldp_ids",
    "make_baseline": "ldp_ids",
    "LDPTraceConfig": "ldptrace",
    "LDPTraceSynthesizer": "ldptrace",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
