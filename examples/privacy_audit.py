"""Auditing the w-event ε-LDP guarantee end to end.

Privacy claims deserve verification, not trust.  This example:

1. runs RetraSyn and prints the ledger: per-user spends, the maximum
   any-window total, and the formal verdict;
2. demonstrates the *mechanism-level* guarantee empirically — two users at
   different locations produce statistically indistinguishable OUE reports
   (likelihood ratio bounded by e^ε);
3. shows the accountant *rejecting* a protocol that would overspend.

Run:  python examples/privacy_audit.py
"""

import numpy as np

from repro import RetraSyn, RetraSynConfig, load_dataset
from repro.exceptions import PrivacyBudgetError
from repro.ldp.accountant import ColumnarPrivacyAccountant
from repro.ldp.oue import OptimizedUnaryEncoding

EPSILON = 1.0
W = 10


def ledger_audit() -> None:
    data = load_dataset("tdrive", scale=0.03, seed=0)
    run = RetraSyn(RetraSynConfig(epsilon=EPSILON, w=W, seed=0)).run(data)
    acc = run.accountant
    print("== 1. ledger audit ==")
    print(f"guarantee: any {W} consecutive timestamps, total spend <= {EPSILON}")
    print(f"audit: {acc.summary()}")
    spends = [acc.total_spend(u) for u in range(len(data))]
    print(f"lifetime spend per user: mean {np.mean(spends):.3f}, "
          f"max {np.max(spends):.3f} "
          f"(lifetime exceeding eps is fine — the bound is per window)")
    assert acc.verify()


def mechanism_indistinguishability() -> None:
    print("\n== 2. mechanism-level indistinguishability ==")
    d = 32
    trials = 200_000
    # User A holds value 3, user B holds value 17. For any single output
    # bit, the probability ratio must be bounded by e^eps.
    oue_a = OptimizedUnaryEncoding(d, EPSILON, rng=1, mode="exact")
    oue_b = OptimizedUnaryEncoding(d, EPSILON, rng=2, mode="exact")
    reports_a = oue_a.perturb_many([3] * trials)
    reports_b = oue_b.perturb_many([17] * trials)
    worst = 0.0
    for bit in (3, 17):
        pa = reports_a[:, bit].mean()
        pb = reports_b[:, bit].mean()
        ratio = max(pa / pb, pb / pa)
        worst = max(worst, ratio)
        print(f"  Pr[bit {bit:2d} = 1]: user A {pa:.4f}, user B {pb:.4f} "
              f"(ratio {ratio:.3f})")
    print(f"  worst per-bit ratio {worst:.3f} <= e^eps = {np.exp(EPSILON):.3f}")
    assert worst <= np.exp(EPSILON) * 1.05  # sampling slack


def overspend_rejected() -> None:
    print("\n== 3. overspending is rejected, not logged ==")
    acc = ColumnarPrivacyAccountant(epsilon=EPSILON, w=W)
    acc.spend(user_id=0, timestamp=5, epsilon=0.7)
    print(f"  user 0 spent 0.7 at t=5; window total {acc.window_spend(0, 5):.1f}")
    try:
        acc.spend(user_id=0, timestamp=9, epsilon=0.5)
    except PrivacyBudgetError as exc:
        print(f"  second spend raised PrivacyBudgetError: {exc}")
    else:
        raise AssertionError("overspend was not rejected!")


def main() -> None:
    ledger_audit()
    mechanism_indistinguishability()
    overspend_rejected()
    print("\nall audits passed.")


if __name__ == "__main__":
    main()
