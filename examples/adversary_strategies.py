#!/usr/bin/env python3
"""Adversary strategies: does focusing a fixed attack budget pay off?

Reproduces the Section 7.3 study (Figure 7): an adversary with a fixed
total budget ``B = c·F·n`` fabricated messages per round chooses how
widely to spread it.  Against Push and Pull, concentrating everything on
few processes is devastating; against Drum, the best the adversary can
do is attack everyone — i.e., Drum removes the incentive to target.

Run:  python examples/adversary_strategies.py
"""

from repro import AttackSpec, Experiment
from repro.metrics import adversary_best_extent
from repro.util import Table

N = 120
C = 2.0  # attack budget as a multiple of the system's total capacity
ALPHAS = [0.1, 0.3, 0.5, 0.7, 0.9]
RUNS = 120


def main() -> None:
    specs = [AttackSpec.relative_budget(C, a, N, fan_out=4) for a in ALPHAS]
    table = Table(
        f"Fixed budget B={C:g}x capacity: propagation time by attack extent (n={N})",
        ["protocol"] + [f"a={a:g} (x={s.x:.0f})" for a, s in zip(ALPHAS, specs)]
        + ["adversary's best extent"],
    )
    for protocol in ("drum", "push", "pull"):
        times = []
        for spec in specs:
            exp = Experiment(
                protocol=protocol,
                n=N,
                malicious_fraction=0.1,
                attack=spec,
                max_rounds=400,
                runs=RUNS,
            )
            times.append(exp.run("fast", seed=3).mean_rounds())
        best = adversary_best_extent(ALPHAS, times)
        table.add_row(protocol, *times, f"α={best:g}")
    print(table)
    print()
    print(
        "Against Drum the damage *increases* with the extent — spreading\n"
        "wins, so there is no vulnerable subset to focus on (Lemma 2).\n"
        "Against Push and Pull the damage explodes as the attack narrows."
    )


if __name__ == "__main__":
    main()
