"""Figure 7: strong fixed-budget attacks — adversary strategies.

With B = 7.2n (c = 2) and B = 36n (c = 10) fabricated messages per round
spread over a varying fraction α of the processes: focusing devastates
Push and Pull; against Drum the most damaging strategy is attacking
everyone (Lemma 2).  At the rightmost point all protocols meet.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import mc_kwargs, once, record, runs, scaled

from repro.adversary import AttackSpec
from repro.metrics import adversary_best_extent
from repro.sim import Scenario, monte_carlo
from repro.util import Table

PROTOCOLS = ("drum", "push", "pull")
EXTENTS = [0.1, 0.3, 0.5, 0.7, 0.9]


def _budget_sweep(n, budget_per_n, seed):
    specs = [
        AttackSpec.fixed_budget(budget_per_n * n, a, n)
        for a in EXTENTS
    ]
    out = {}
    for protocol in PROTOCOLS:
        times = []
        for spec in specs:
            scenario = Scenario(
                protocol=protocol,
                n=n,
                malicious_fraction=0.1,
                attack=spec,
                max_rounds=400,
            )
            times.append(
                monte_carlo(
                    scenario, runs=runs(2), seed=seed, **mc_kwargs()
                ).mean_rounds()
            )
        out[protocol] = times
    return out


def _check_and_record(name, title, times):
    table = Table(title, ["protocol"] + [f"α={a:g}" for a in EXTENTS] + ["worst α"])
    for protocol in PROTOCOLS:
        best = adversary_best_extent(EXTENTS, times[protocol])
        table.add_row(protocol, *times[protocol], f"{best:g}")
    record(name, table)

    # Lemma 2: against Drum the all-out attack is the most damaging —
    # focusing buys the adversary nothing.
    assert adversary_best_extent(EXTENTS, times["drum"]) == EXTENTS[-1]
    # Against Push, focusing is the winning strategy.
    assert adversary_best_extent(EXTENTS, times["push"]) == EXTENTS[0]
    # A focused attack hurts Push and Pull far more than it hurts Drum.
    assert times["push"][0] > 2 * times["drum"][0]
    assert times["pull"][0] > 1.5 * times["drum"][0]
    # All protocols roughly meet when everyone is attacked.
    rightmost = [times[p][-1] for p in PROTOCOLS]
    assert max(rightmost) - min(rightmost) < 0.45 * max(rightmost)


def test_fig07a_c2_n120(benchmark):
    times = once(benchmark, lambda: _budget_sweep(120, 7.2, seed=70))
    _check_and_record(
        "fig07a", "Figure 7(a): fixed budget B=7.2n (c=2), n=120", times
    )


def test_fig07b_c10_n120(benchmark):
    times = once(benchmark, lambda: _budget_sweep(120, 36.0, seed=71))
    _check_and_record(
        "fig07b", "Figure 7(b): fixed budget B=36n (c=10), n=120", times
    )


def test_fig07c_c2_n500(benchmark):
    n = scaled(500)
    times = once(benchmark, lambda: _budget_sweep(n, 7.2, seed=72))
    _check_and_record(
        "fig07c", f"Figure 7(c): fixed budget B=7.2n (c=2), n={n}", times
    )


def test_fig07d_c10_n500(benchmark):
    n = scaled(500)
    times = once(benchmark, lambda: _budget_sweep(n, 36.0, seed=73))
    _check_and_record(
        "fig07d", f"Figure 7(d): fixed budget B=36n (c=10), n={n}", times
    )
