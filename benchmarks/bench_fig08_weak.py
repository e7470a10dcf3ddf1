"""Figure 8: weak fixed-budget attacks against Drum.

Attacks with budgets of 0.25x / 0.5x / 1x the system's total capacity
(B = 0.9n, 1.8n, 3.6n) barely move Drum's propagation time at any
extent.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import once, record, runs, scaled

from repro.adversary import AttackSpec
from repro.sim import Scenario, monte_carlo
from repro.util import Table

EXTENTS = [0.1, 0.3, 0.5, 0.7, 0.9]
BUDGETS_PER_N = [0.0, 0.9, 1.8, 3.6]  # c = 0, 0.25, 0.5, 1


def _drum_sweep(n, seed):
    rows = {}
    for budget_per_n in BUDGETS_PER_N:
        times = []
        if budget_per_n == 0.0:
            baseline = monte_carlo(
                Scenario(protocol="drum", n=n, malicious_fraction=0.1),
                runs=runs(2),
                seed=seed,
            ).mean_rounds()
            times = [baseline] * len(EXTENTS)
        else:
            for alpha in EXTENTS:
                spec = AttackSpec.fixed_budget(budget_per_n * n, alpha, n)
                scenario = Scenario(
                    protocol="drum",
                    n=n,
                    malicious_fraction=0.1,
                    attack=spec,
                    max_rounds=200,
                )
                times.append(
                    monte_carlo(scenario, runs=runs(2), seed=seed).mean_rounds()
                )
        rows[budget_per_n] = times
    return rows


def _check_and_record(name, n, rows):
    table = Table(
        f"Figure 8: Drum under weak fixed-budget attacks (n={n})",
        ["B"] + [f"α={a:g}" for a in EXTENTS],
    )
    for budget_per_n, times in rows.items():
        label = "none" if budget_per_n == 0 else f"{budget_per_n:g}n"
        table.add_row(label, *times)
    record(name, table)

    baseline = rows[0.0][0]
    for budget_per_n, times in rows.items():
        # Little impact: within a few rounds of the attack-free baseline
        # even at the strongest (c = 1, all-out) weak attack.
        assert max(times) < baseline + 3.5, (budget_per_n, times)
        assert max(times) < 1.6 * baseline, (budget_per_n, times)


def test_fig08a_weak_attacks_n120(benchmark):
    rows = once(benchmark, lambda: _drum_sweep(120, seed=80))
    _check_and_record("fig08a", 120, rows)


def test_fig08b_weak_attacks_n500(benchmark):
    n = scaled(500)
    rows = once(benchmark, lambda: _drum_sweep(n, seed=81))
    _check_and_record("fig08b", n, rows)
