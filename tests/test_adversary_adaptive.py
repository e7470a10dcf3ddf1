"""Tests for the adaptive adversaries (beyond-paper ablation)."""

import numpy as np
import pytest

from repro.adversary import AttackSpec
from repro.adversary.adaptive import FrontierAttacker, RotatingAttacker
from repro.core import ProtocolKind
from repro.net import Address, LossModel, Network, PORT_PULL_REQUEST, PORT_PUSH_DATA
from repro.sim import RoundSimulator, Scenario
from repro.util import spawn_seeds


def _adaptive(cls):
    """An attacker factory choosing victims among all correct processes."""
    return lambda s, net, seed: cls(
        s.attack, s.protocol, s.alive_correct_ids(), net, n=s.n, seed=seed
    )


def _network(victims):
    net = Network(LossModel(0.0), seed=0)
    for pid in victims:
        net.open_port(Address(pid, PORT_PUSH_DATA))
        net.open_port(Address(pid, PORT_PULL_REQUEST))
    return net


class TestRotatingAttacker:
    def test_budget_respected(self):
        net = _network(range(10))
        attacker = RotatingAttacker(
            AttackSpec(alpha=0.3, x=10), ProtocolKind.DRUM,
            list(range(10)), net, n=10, seed=1,
        )
        attacker.observe_round({pid: False for pid in range(10)})
        assert len(attacker.victims) == 3
        assert len(set(attacker.victims)) == 3

    def test_victims_rotate(self):
        net = _network(range(10))
        attacker = RotatingAttacker(
            AttackSpec(alpha=0.2, x=10), ProtocolKind.DRUM,
            list(range(10)), net, n=10, seed=2,
        )
        seen = set()
        for _ in range(20):
            attacker.observe_round({pid: False for pid in range(10)})
            seen.update(attacker.victims)
        assert len(seen) > 5  # the set really moves around


class TestFrontierAttacker:
    def test_targets_uninfected_plus_source(self):
        net = _network(range(10))
        attacker = FrontierAttacker(
            AttackSpec(alpha=0.3, x=10), ProtocolKind.DRUM,
            list(range(10)), net, n=10, seed=3, source=0,
        )
        holders = {pid: pid in (0, 1, 2, 3) for pid in range(10)}
        attacker.observe_round(holders)
        assert 0 in attacker.victims  # the source is always suppressed
        others = [v for v in attacker.victims if v != 0]
        assert all(not holders[v] for v in others)

    def test_tops_up_when_frontier_small(self):
        net = _network(range(6))
        attacker = FrontierAttacker(
            AttackSpec(alpha=0.5, x=10), ProtocolKind.DRUM,
            list(range(6)), net, n=6, seed=4, source=0,
        )
        holders = {pid: pid != 5 for pid in range(6)}  # frontier = {5}
        attacker.observe_round(holders)
        assert len(attacker.victims) == 3
        assert {0, 5} <= set(attacker.victims)


class TestAdaptiveVsDrum:
    """Drum's resistance argument extends to adaptive adversaries."""

    def _mean_rounds(self, attacker_factory, seeds, protocol="drum"):
        times = []
        scenario = Scenario(
            protocol=protocol, n=50, malicious_fraction=0.1,
            attack=AttackSpec(alpha=0.2, x=64), max_rounds=300,
        )
        for seed in seeds:
            sim = RoundSimulator(
                scenario, seed=seed, attacker_factory=attacker_factory
            )
            result = sim.run()
            rounds = result.rounds_to_threshold()
            times.append(rounds if not np.isnan(rounds) else 300)
        return float(np.mean(times))

    def test_frontier_attack_gains_little_against_drum(self):
        seeds = spawn_seeds(99, 40)
        static = self._mean_rounds(None, seeds)
        frontier = self._mean_rounds(_adaptive(FrontierAttacker), seeds)
        # Even an omniscient frontier attacker cannot blow Drum up:
        # within a few rounds of the static attack of equal budget.
        assert frontier < static + 4.0, (static, frontier)

    def test_rotating_no_worse_than_static_for_drum(self):
        seeds = spawn_seeds(7, 40)
        static = self._mean_rounds(None, seeds)
        rotating = self._mean_rounds(_adaptive(RotatingAttacker), seeds)
        assert rotating < static + 3.0, (static, rotating)
