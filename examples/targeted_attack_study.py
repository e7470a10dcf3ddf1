#!/usr/bin/env python3
"""Targeted-attack study: rate sweeps, trend fits, and analysis bounds.

Reproduces the Section 7.2 methodology end to end:

1. sweep the per-victim attack rate ``x`` with the extent fixed at 10 %
   (one Figure 3(a) grid, :func:`repro.rate_grid`);
2. fit each protocol's propagation-time trend
   (:func:`repro.metrics.dos_impact`) — Drum comes out flat, Push and
   Pull linear;
3. compare against the closed-form Section 6 bounds (Push's lower bound
   and Pull's source-escape time) and the Appendix B escape statistics.

Run:  python examples/targeted_attack_study.py
"""

from repro import rate_grid
from repro.analysis import (
    escape_time_std,
    expected_escape_rounds,
    push_propagation_lower_bound,
)
from repro.metrics import dos_impact
from repro.util import Table

N = 120
ALPHA = 0.1
RATES = [0, 32, 64, 128]
RUNS = 120


def main() -> None:
    figure = rate_grid(
        ["drum", "push", "pull"], RATES, n=N, alpha=ALPHA, runs=RUNS, seed=7,
    ).run()
    table = Table(
        f"Propagation time vs attack rate (n={N}, alpha={ALPHA:.0%})",
        ["protocol"] + [f"x={x}" for x in RATES] + ["verdict"],
    )
    for protocol, times in figure.series.items():
        report = dos_impact("x", RATES, times)
        verdict = "resistant" if report.is_resistant else "degrades"
        table.add_row(protocol, *times, verdict)
        print(f"{protocol:5s}: {report.describe()}")
    print()
    print(table)

    print()
    print("Closed-form cross-checks (Section 6 / Appendix B):")
    bound = push_propagation_lower_bound(N, 4, ALPHA, 128)
    print(f"  Push lower bound at x=128:    {bound:6.1f} rounds (sim should exceed it)")
    escape = expected_escape_rounds(N, 4, 64)  # Pull puts all of x on one port
    print(f"  Pull expected source escape:  {escape:6.1f} rounds at x_pull=64")
    print(f"  Pull escape-time STD:         {escape_time_std(N, 4, 64):6.1f} rounds")


if __name__ == "__main__":
    main()
