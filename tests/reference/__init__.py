"""Test oracles: the straightforward formulations the engine is checked against.

Nothing here is reachable from ``src/``: no config field, flag or mode
value selects these implementations.  The differential suites import
them to pin the production paths — the vectorized model compilation, the
batched OUE protocol, the columnar reporter sampler and the columnar
privacy ledger — to a loop anyone can read.

* :mod:`reference.compile` — the per-cell compile loop;
* :mod:`reference.oue` — OUE one-counts as one ``perturb_one`` per user;
* :mod:`reference.sampler` — reporter selection as a loop over
  ``(uid, TransitionState)`` pairs;
* :mod:`reference.ledger` — the dict ledger ``PrivacyAccountant`` (full
  per-user spend histories) and the ``object_ledger`` fixture, which
  installs it as the ledger of the curator and of the baselines.
"""
