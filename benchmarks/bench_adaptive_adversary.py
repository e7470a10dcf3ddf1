"""Ablation (beyond the paper): adaptive adversaries against Drum.

The paper's adversary is static.  Here, attackers of equal per-round
budget re-target every round: a *rotating* attacker moves its victim set
randomly, and an omniscient *frontier* attacker always floods exactly
the processes that do not yet hold M.  Drum's design argument — an
attacked process can still send and still receive — predicts adaptivity
buys the adversary very little, and this benchmark quantifies that.
Push, for contrast, suffers visibly more from the frontier attacker.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np

from _common import once, record, runs

from repro.adversary import AttackSpec, FrontierAttacker, RotatingAttacker
from repro.sim import RoundSimulator, Scenario
from repro.util import Table, spawn_seeds

N = 60


def _adaptive(cls):
    """An attacker factory choosing victims among all correct processes."""
    return lambda s, net, seed: cls(
        s.attack, s.protocol, s.alive_correct_ids(), net, n=s.n, seed=seed
    )


STRATEGIES = {
    "static": None,
    "rotating": _adaptive(RotatingAttacker),
    "frontier (omniscient)": _adaptive(FrontierAttacker),
}


def _mean_rounds(protocol, attacker_factory, x, seed_root):
    scenario = Scenario(
        protocol=protocol,
        n=N,
        malicious_fraction=0.1,
        attack=AttackSpec(alpha=0.2, x=float(x)),
        max_rounds=300,
    )
    times = []
    for seed in spawn_seeds(seed_root, max(20, runs(5))):
        sim = RoundSimulator(
            scenario, seed=seed, attacker_factory=attacker_factory
        )
        rounds = sim.run().rounds_to_threshold()
        times.append(rounds if not np.isnan(rounds) else scenario.max_rounds)
    return float(np.mean(times))


def test_adaptive_adversaries(benchmark):
    def sweep():
        out = {}
        for protocol in ("drum", "push"):
            out[protocol] = {
                name: _mean_rounds(protocol, factory, 64, seed_root=900)
                for name, factory in STRATEGIES.items()
            }
        return out

    data = once(benchmark, sweep)
    table = Table(
        f"Ablation: adaptive adversaries, equal budget (n={N}, α=20%, x=64)",
        ["protocol"] + list(STRATEGIES),
    )
    for protocol, by_strategy in data.items():
        table.add_row(protocol, *[by_strategy[s] for s in STRATEGIES])
    record("adaptive_adversary", table)

    drum = data["drum"]
    # Adaptivity gains the adversary little against Drum...
    assert drum["frontier (omniscient)"] < drum["static"] + 4.0
    assert drum["rotating"] < drum["static"] + 3.0
    # ...and Drum under the omniscient attacker still beats Push under
    # the plain static one.
    assert drum["frontier (omniscient)"] < data["push"]["static"]
