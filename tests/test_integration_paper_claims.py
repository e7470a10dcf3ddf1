"""End-to-end checks of the paper's headline claims, at test-friendly scale.

Each test reproduces one qualitative result of the paper using the same
machinery the benchmark harness uses (smaller n / fewer runs, looser
assertions).  These are the repository's ground truth: if one of these
fails, the reproduction has regressed.
"""

import math

import numpy as np
import pytest

from repro.adversary import AttackSpec
from repro.metrics import adversary_best_extent, dos_impact
from repro.sim import Scenario, monte_carlo
from repro.sweep import scale_grid

RUNS = 150
N = 80
MALICIOUS = 0.1


def _prop_time(protocol, attack=None, seed=0, **kwargs):
    scenario = Scenario(
        protocol=protocol,
        n=N,
        malicious_fraction=MALICIOUS if attack is not None else 0.0,
        attack=attack,
        max_rounds=400,
        **kwargs,
    )
    return monte_carlo(scenario, runs=RUNS, seed=seed).mean_rounds()


class TestSection6Asymptotics:
    """Section 6 on the fast engine: under a source-targeted flood
    (α = 1/n, B = n) Drum propagates in O(log n) rounds while Pull needs
    Θ(n).  Measured drum 7.6 → 9.2, pull 57 → 355 rounds."""

    NS = (10**3, 10**4)

    @pytest.fixture(scope="class")
    def series(self):
        return scale_grid(
            ["drum", "pull"], self.NS, budget_per_node=1.0, runs=5,
            seed=97, max_rounds=400, engine="fast",
        ).run().series

    def test_drum_rounds_stay_logarithmic(self, series):
        for n, rounds in zip(self.NS, series["drum"]):
            assert rounds <= 2.5 * math.log2(n)

    def test_pull_grows_faster_than_drum(self, series):
        drum, pull = series["drum"], series["pull"]
        assert pull[1] / pull[0] > drum[1] / drum[0]

    def test_pull_is_well_above_drum(self, series):
        for drum, pull in zip(series["drum"], series["pull"]):
            assert pull > 3.0 * drum


class TestSection71KnownResults:
    def test_logarithmic_scaling_without_attack(self):
        """Figure 2(a): propagation time grows ~logarithmically in n."""
        times = [
            monte_carlo(Scenario(protocol="drum", n=n), runs=100, seed=1).mean_rounds()
            for n in (20, 80, 320)
        ]
        growth1 = times[1] - times[0]
        growth2 = times[2] - times[1]
        # Quadrupling n adds roughly a constant number of rounds.
        assert growth1 == pytest.approx(growth2, abs=1.0)
        assert times[2] < 4 * times[0]

    def test_graceful_degradation_under_crashes(self):
        """Figure 2(b): crashes barely hurt gossip."""
        healthy = monte_carlo(
            Scenario(protocol="drum", n=N), runs=RUNS, seed=2
        ).mean_rounds()
        crashed = monte_carlo(
            Scenario(protocol="drum", n=N, crashed_fraction=0.3),
            runs=RUNS, seed=2,
        ).mean_rounds()
        assert crashed < healthy + 3

    def test_protocols_comparable_without_attack(self):
        """Figure 3(a) leftmost point: all three perform about the same."""
        times = [_prop_time(p, seed=3) for p in ("drum", "push", "pull")]
        assert max(times) - min(times) < 2.5


class TestSection72TargetedAttacks:
    def test_drum_flat_push_pull_linear_in_x(self):
        """Figure 3(a): under a 10 % targeted attack, Drum's propagation
        time is bounded while Push's and Pull's grow linearly."""
        xs = [0, 32, 64, 128]
        results = {}
        for protocol in ("drum", "push", "pull"):
            times = []
            for x in xs:
                attack = AttackSpec(alpha=0.1, x=x) if x else AttackSpec(alpha=0.1, x=0.0)
                times.append(_prop_time(protocol, attack, seed=4))
            results[protocol] = dos_impact("x", xs, times)
        assert results["drum"].is_resistant, results["drum"].describe()
        assert results["push"].degrades_linearly, results["push"].describe()
        assert results["pull"].degrades_linearly, results["pull"].describe()

    def test_drum_fastest_under_attack(self):
        """Figure 3: Drum beats Push and Pull under targeted attack."""
        attack = AttackSpec(alpha=0.1, x=128)
        drum = _prop_time("drum", attack, seed=5)
        push = _prop_time("push", attack, seed=5)
        pull = _prop_time("pull", attack, seed=5)
        assert drum < pull < push

    def test_drum_std_flat_pull_std_large(self):
        """Figure 4: Drum's STD stays small; Pull's becomes huge."""
        attack = AttackSpec(alpha=0.1, x=128)
        drum = monte_carlo(
            Scenario(protocol="drum", n=N, malicious_fraction=MALICIOUS,
                     attack=attack, max_rounds=400),
            runs=RUNS, seed=6,
        )
        pull = monte_carlo(
            Scenario(protocol="pull", n=N, malicious_fraction=MALICIOUS,
                     attack=attack, max_rounds=400),
            runs=RUNS, seed=6,
        )
        assert drum.std_rounds() < 2.0
        assert pull.std_rounds() > 3 * drum.std_rounds()

    def test_push_fast_to_unattacked_slow_to_attacked(self):
        """Figure 6: Push's split personality under attack."""
        attack = AttackSpec(alpha=0.1, x=128)
        result = monte_carlo(
            Scenario(protocol="push", n=N, malicious_fraction=MALICIOUS,
                     attack=attack, max_rounds=400),
            runs=RUNS, seed=7,
        )
        to_unattacked = np.nanmean(result.rounds_to_subset_threshold("non_attacked"))
        to_attacked = np.nanmean(result.rounds_to_subset_threshold("attacked"))
        assert to_attacked > 2 * to_unattacked

    def test_drum_balanced_between_subsets(self):
        """Figure 6: Drum reaches attacked and non-attacked similarly."""
        attack = AttackSpec(alpha=0.1, x=128)
        result = monte_carlo(
            Scenario(protocol="drum", n=N, malicious_fraction=MALICIOUS,
                     attack=attack, max_rounds=400),
            runs=RUNS, seed=8,
        )
        to_unattacked = np.nanmean(result.rounds_to_subset_threshold("non_attacked"))
        to_attacked = np.nanmean(result.rounds_to_subset_threshold("attacked"))
        assert to_attacked < to_unattacked + 4


class TestSection73AdversaryStrategies:
    def test_drum_best_attack_is_broad_push_pull_focused(self):
        """Figure 7: with a fixed budget, the adversary's best strategy
        against Drum is spreading; against Push/Pull it is focusing."""
        alphas = [0.1, 0.5, 0.9]
        budget = 10.0 * 4 * N  # c = 10, strong attack
        best = {}
        for protocol in ("drum", "push", "pull"):
            times = []
            for alpha in alphas:
                spec = AttackSpec.fixed_budget(budget, alpha, N)
                scenario = Scenario(
                    protocol=protocol, n=N, malicious_fraction=MALICIOUS,
                    attack=spec, max_rounds=400,
                )
                times.append(monte_carlo(scenario, runs=RUNS, seed=9).mean_rounds())
            best[protocol] = adversary_best_extent(alphas, times)
        assert best["drum"] == 0.9
        assert best["push"] == 0.1
        assert best["pull"] == 0.1

    def test_weak_attacks_barely_hurt_drum(self):
        """Figure 8: c <= 1 attacks have little impact on Drum."""
        baseline = _prop_time("drum", seed=10)
        for c in (0.25, 1.0):
            spec = AttackSpec.relative_budget(c, 0.5, N, 4)
            attacked = _prop_time("drum", spec, seed=10)
            assert attacked < baseline + 3


class TestSection9Mitigations:
    def test_random_ports_matter(self):
        """Figure 12(a): without random ports, Drum degrades with x."""
        xs = [32, 128]
        with_ports = [
            _prop_time("drum", AttackSpec(alpha=0.1, x=x), seed=11) for x in xs
        ]
        without_ports = [
            _prop_time("drum-no-random-ports", AttackSpec(alpha=0.1, x=x), seed=11)
            for x in xs
        ]
        assert with_ports[1] - with_ports[0] < 2
        assert without_ports[1] - without_ports[0] > 2
        assert without_ports[1] > with_ports[1]

    def test_separate_bounds_matter(self):
        """Figure 12(b): with shared control bounds, Drum degrades with x."""
        xs = [32, 128]
        shared = [
            _prop_time("drum-shared-bounds", AttackSpec(alpha=0.1, x=x), seed=12)
            for x in xs
        ]
        separate = [
            _prop_time("drum", AttackSpec(alpha=0.1, x=x), seed=12) for x in xs
        ]
        assert shared[1] - shared[0] > 2
        assert separate[1] - separate[0] < 2
        assert shared[1] > separate[1]
