"""`repro lint`: invariant-checking static analysis for this repository.

Every scaling PR rests on contracts that are otherwise only checked
*dynamically* — bit-identical RNG draw order across the serial and
distributed executors, wire-schema and spec↔CLI consistency.  A
violation is caught (if at all) by an expensive differential test long
after the offending line was written.  This package
proves those invariants over the *program structure* instead: an
AST-walking rule engine that fails in seconds, wired into CI and into the
tier-1 test suite (``tests/analysis/test_repo_clean.py``).

Layout:

* :mod:`~repro.analysis.lint.engine` — module loading, plane detection,
  inline ``# repro-lint: disable=RULE`` suppressions, rule driver;
* :mod:`~repro.analysis.lint.baseline` — the committed grandfather file
  (``lint-baseline.json``): content-addressed entries with justifications;
* :mod:`~repro.analysis.lint.rules_determinism` — RNG discipline,
  wall-clock reads, nondeterministic ``set`` iteration;
* :mod:`~repro.analysis.lint.rules_concurrency` — lock-scope hygiene;
* :mod:`~repro.analysis.lint.rules_registry` — wire-schema verb
  consistency, spec/CLI drift, metric naming/documentation;
* :mod:`~repro.analysis.lint.cli` — the ``repro lint`` subcommand
  (exit 0 clean / 1 findings).

The rule catalog, the suppression workflow and the baseline format are
documented in ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

_EXPORTS = {
    "Baseline": "baseline",
    "BaselineEntry": "baseline",
    "Finding": "engine",
    "LintResult": "engine",
    "Module": "engine",
    "Project": "engine",
    "Rule": "engine",
    "all_rules": "rules",
    "rule_names": "rules",
    "run_lint": "engine",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
