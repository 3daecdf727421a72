"""Test oracles: the straightforward formulations the engine is checked against.

Nothing here is reachable from ``src/``: no config field, flag or mode
value selects these implementations.  The differential suites import
them to pin the production paths — the vectorized model compilation, the
batched OUE protocol and the columnar privacy ledger — to a loop anyone
can read.

* :mod:`reference.compile` — the per-cell compile loop;
* :mod:`reference.oue` — OUE one-counts as one ``perturb_one`` per user;
* :mod:`reference.ledger` — the ``object_ledger`` fixture, which installs
  the dict-based :class:`~repro.ldp.accountant.PrivacyAccountant` as the
  curator's ledger.
"""
