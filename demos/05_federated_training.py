"""End-to-end private federated training on synthetic data.

Each round clips every client gradient, privatizes it with a one-bit
mechanism, averages the decoded messages, and takes a momentum step; the
accountant converts the composed cost to a spent epsilon after every round.
"""

import numpy as np

from imvu import (
    ClipConfig,
    DesignSpec,
    FlConfig,
    InterpolatedMechanism,
    attach_accounting,
    design_mvu,
    train_fl,
)


def config(mechanism, mech=None, seed=0):
    return FlConfig(
        rounds=40, cohort=60, dims=20, lr=0.3,
        clip=ClipConfig("l1", 1.0), mechanism=mechanism, mech=mech,
        seed=seed, data_seed=1234, n_train=600, separation=4.0,
    )


baseline = train_fl(config("identity"))
print(f"non-private reference: final accuracy {baseline.final_accuracy:.3f}\n")

print(f"{'design eps':>10} {'spent eps (40 rounds)':>22} {'median accuracy':>16}")
for eps in (0.5, 2.0, 8.0):
    table = design_mvu(DesignSpec(2, 2, eps))
    mech = attach_accounting(
        InterpolatedMechanism(table, beta=1.0, clip=ClipConfig("l1", 1.0))
    )
    finals = [train_fl(config("imvu", mech, seed=s)).final_accuracy for s in range(5)]
    spent = train_fl(config("imvu", mech)).spent_eps[-1]
    print(f"{eps:>10.1f} {spent:>22.2f} {np.median(finals):>16.3f}")

print("\none run in detail (eps = 2):")
table = design_mvu(DesignSpec(2, 2, 2.0))
mech = attach_accounting(InterpolatedMechanism(table, beta=1.0, clip=ClipConfig("l1", 1.0)))
result = train_fl(config("imvu", mech))
for t in range(0, 40, 8):
    print(f"  round {t + 1:>2}: accuracy {result.accuracy[t]:.3f}, "
          f"spent eps {result.spent_eps[t]:7.2f}")
result.to_csv("training_run.csv")
print("per-round trajectory written -> training_run.csv")
