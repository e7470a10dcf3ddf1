"""Section 6 lemmas and corollaries, checked numerically against sweeps.

- Lemma 1:     Drum's propagation time is bounded in x (fixed α < 1).
- Lemma 2:     under strong fixed budgets, Drum's damage is monotone in α.
- Corollary 1: Push's propagation time grows at least linearly in x.
- Corollary 2: Pull's propagation time grows at least linearly in x.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import once, record, runs

from repro.adversary import AttackSpec
from repro.analysis import (
    drum_effective_degrees,
    pull_escape_lower_bound,
    push_propagation_lower_bound,
)
from repro.metrics import linear_fit
from repro.sim import Scenario, monte_carlo
from repro.util import Table

N = 120
RATES = [32, 64, 128, 256]


def _prop(protocol, attack, seed):
    scenario = Scenario(
        protocol=protocol, n=N, malicious_fraction=0.1,
        attack=attack, max_rounds=800,
    )
    return monte_carlo(scenario, runs=runs(2), seed=seed).mean_rounds()


def test_lemma1_drum_bounded_in_x(benchmark):
    times = once(
        benchmark,
        lambda: [_prop("drum", AttackSpec(alpha=0.1, x=float(x)), 150) for x in RATES],
    )
    table = Table(
        "Lemma 1: Drum's propagation time vs x (bounded)",
        ["x"] + ["rounds"],
    )
    for x, t in zip(RATES, times):
        table.add_row(x, t)
    record("lemma1", table)
    assert max(times) - min(times) < 2.0, times
    # The degree floor that proves the lemma is positive and x-free:
    # F·(1-α)/2·p_u ≈ 1.4 at α=10%, regardless of x.
    degrees = [drum_effective_degrees(N, 4, 0.1, x).attacked for x in RATES]
    assert min(degrees) > 1.2
    assert max(degrees) - min(degrees) < 0.5


def test_lemma2_drum_monotone_in_alpha(benchmark):
    alphas = [0.1, 0.3, 0.5, 0.7, 0.9]
    budget = 10.0 * 4 * N  # c = 10 > 5, the lemma's regime

    def sweep():
        return [
            _prop("drum", AttackSpec.fixed_budget(budget, alpha, N), 151)
            for alpha in alphas
        ]

    times = once(benchmark, sweep)
    table = Table(
        "Lemma 2: Drum under fixed budget c=10, monotone in α",
        [f"α={a:g}" for a in alphas],
    )
    table.add_row(*times)
    record("lemma2", table)
    assert all(a < b for a, b in zip(times, times[1:])), times


def test_corollary1_push_linear_in_x(benchmark):
    times = once(
        benchmark,
        lambda: [_prop("push", AttackSpec(alpha=0.1, x=float(x)), 152) for x in RATES],
    )
    table = Table(
        "Corollary 1: Push vs x (linear), with Lemma 4 lower bound",
        ["x", "simulated", "lower bound"],
    )
    bounds = [push_propagation_lower_bound(N, 4, 0.1, x) for x in RATES]
    for x, t, b in zip(RATES, times, bounds):
        table.add_row(x, t, b)
    record("corollary1", table)

    slope, _, r2 = linear_fit(RATES, times)
    assert slope > 0.05 and r2 > 0.95, (slope, r2)
    for t, b in zip(times, bounds):
        assert t > b, "simulation must respect the closed-form lower bound"


def test_corollary2_pull_linear_in_x(benchmark):
    times = once(
        benchmark,
        lambda: [_prop("pull", AttackSpec(alpha=0.1, x=float(x)), 153) for x in RATES],
    )
    table = Table(
        "Corollary 2: Pull vs x (linear), with Lemma 6 escape bound",
        ["x", "simulated", "escape lower bound"],
    )
    bounds = [pull_escape_lower_bound(N, 4, x) for x in RATES]
    for x, t, b in zip(RATES, times, bounds):
        table.add_row(x, t, b)
    record("corollary2", table)

    slope, _, r2 = linear_fit(RATES, times)
    assert slope > 0.03 and r2 > 0.95, (slope, r2)
    for t, b in zip(times, bounds):
        assert t > b
