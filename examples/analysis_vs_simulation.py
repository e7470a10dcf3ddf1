#!/usr/bin/env python3
"""Analysis vs simulation overlay (Appendix C / Figures 13–14).

Computes the expected per-round coverage from the paper's exact
numerical recursion and overlays it on Monte-Carlo simulation — with
and without a DoS attack — including the `refined` analysis mode that
goes beyond the paper by removing two independence approximations.

Run:  python examples/analysis_vs_simulation.py
"""

import numpy as np

from repro import AttackSpec, Experiment
from repro.analysis import coverage_curve_attack, coverage_curve_no_attack
from repro.util import Table

N = 120
ROUNDS = 14
CHECKPOINTS = [2, 4, 6, 8, 10, 12]


def simulate(exp: Experiment, seed: int) -> np.ndarray:
    """Mean coverage per round 0..ROUNDS over 400 runs.  A batch stops
    once every run reached everyone; coverage then stays at 1, so the
    curve is padded with its last value."""
    exp = exp.with_(threshold=1.0, max_rounds=ROUNDS, runs=400)
    coverage = exp.run("fast", seed=seed).coverage_by_round()
    return np.pad(coverage, (0, ROUNDS + 1 - len(coverage)), mode="edge")


def overlay(title, analysis, refined, sim):
    table = Table(title, ["series"] + [f"r={r}" for r in CHECKPOINTS] + ["max |Δ| vs sim"])
    table.add_row("analysis (paper)", *[analysis[r] for r in CHECKPOINTS],
                  float(np.abs(analysis - sim).max()))
    table.add_row("analysis (refined)", *[refined[r] for r in CHECKPOINTS],
                  float(np.abs(refined - sim).max()))
    table.add_row("simulation", *[sim[r] for r in CHECKPOINTS], 0.0)
    print(table)
    print()


def main() -> None:
    print("== no attack ==")
    for protocol in ("drum", "push", "pull"):
        analysis = coverage_curve_no_attack(protocol, N, rounds=ROUNDS).coverage
        refined = coverage_curve_no_attack(
            protocol, N, rounds=ROUNDS, refined=True
        ).coverage
        sim = simulate(Experiment(protocol=protocol, n=N), seed=7)
        overlay(f"{protocol}: expected coverage per round (n={N})",
                analysis, refined, sim)

    print("== under attack (α=10%, x=64, 10% malicious) ==")
    attack = AttackSpec(alpha=0.1, x=64)
    for protocol in ("drum", "push", "pull"):
        analysis = coverage_curve_attack(
            protocol, N, 12, attack, rounds=ROUNDS
        ).coverage
        refined = coverage_curve_attack(
            protocol, N, 12, attack, rounds=ROUNDS, refined=True
        ).coverage
        sim = simulate(
            Experiment(protocol=protocol, n=N, malicious_fraction=0.1,
                       attack=attack),
            seed=8,
        )
        overlay(f"{protocol} under attack (n={N})", analysis, refined, sim)

    print(
        "The recursion tracks the simulation closely; the refined mode\n"
        "(exact bounded-channel acceptance) tightens the overlay further."
    )


if __name__ == "__main__":
    main()
