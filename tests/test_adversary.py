"""Tests for attack specifications, strategy sweeps, and the round attacker."""

import pytest

from repro.adversary import (
    AttackSpec,
    RoundAttacker,
)
from repro.core import ProtocolKind
from repro.net import (
    Address,
    LossModel,
    Network,
    PORT_PULL_REPLY,
    PORT_PULL_REQUEST,
    PORT_PUSH_DATA,
    PORT_PUSH_OFFER,
)


class TestAttackSpec:
    def test_total_strength(self):
        spec = AttackSpec(alpha=0.1, x=128)
        assert spec.total_strength(1000) == pytest.approx(12800)

    def test_relative_strength(self):
        spec = AttackSpec(alpha=0.1, x=72)
        # B = 7.2n, capacity F·n = 4n → c = 1.8
        assert spec.relative_strength(500, 4) == pytest.approx(1.8)

    def test_fixed_budget_inverts(self):
        spec = AttackSpec.fixed_budget(7.2 * 120, alpha=0.1, n=120)
        assert spec.x == pytest.approx(72)
        assert spec.total_strength(120) == pytest.approx(7.2 * 120)

    def test_relative_budget(self):
        spec = AttackSpec.relative_budget(c=2.0, alpha=0.9, n=120, fan_out=4)
        assert spec.total_strength(120) == pytest.approx(2.0 * 4 * 120)
        assert spec.x == pytest.approx(8.0 / 0.9)

    def test_victim_count_rounds(self):
        assert AttackSpec(alpha=0.1, x=1).victim_count(120) == 12
        assert AttackSpec(alpha=0.1, x=1).victim_count(125) == 12  # round(12.5)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            AttackSpec(alpha=0.0, x=10)
        with pytest.raises(ValueError):
            AttackSpec(alpha=1.5, x=10)

    def test_negative_rate(self):
        with pytest.raises(ValueError):
            AttackSpec(alpha=0.5, x=-1)


class TestPortLoads:
    def test_drum_splits_evenly(self):
        load = AttackSpec(alpha=0.1, x=128).port_load(ProtocolKind.DRUM)
        assert load.push == 64 and load.pull_request == 64
        assert load.pull_reply == 0

    def test_push_all_on_push(self):
        load = AttackSpec(alpha=0.1, x=128).port_load(ProtocolKind.PUSH)
        assert load.push == 128 and load.pull_request == 0

    def test_pull_all_on_pull(self):
        load = AttackSpec(alpha=0.1, x=128).port_load(ProtocolKind.PULL)
        assert load.pull_request == 128 and load.push == 0

    def test_no_random_ports_quarters_pull(self):
        load = AttackSpec(alpha=0.1, x=128).port_load(
            ProtocolKind.DRUM_NO_RANDOM_PORTS
        )
        assert load.push == 64
        assert load.pull_request == 32
        assert load.pull_reply == 32

    def test_total_preserved(self):
        spec = AttackSpec(alpha=0.1, x=100)
        for kind in ProtocolKind:
            assert spec.port_load(kind).total == pytest.approx(100)


class TestSweeps:
    """The strategy sweeps of Sections 7.2–7.3 as lists of specs."""

    def test_increasing_rate(self):
        specs = [AttackSpec(alpha=0.1, x=x) for x in [0, 32, 64]]
        assert [s.x for s in specs] == [0, 32, 64]
        assert all(s.alpha == 0.1 for s in specs)

    def test_increasing_extent(self):
        specs = [AttackSpec(alpha=a, x=128) for a in [0.1, 0.4]]
        assert [s.alpha for s in specs] == [0.1, 0.4]

    def test_fixed_budget_conserves_strength(self):
        specs = [
            AttackSpec.fixed_budget(7.2 * 120, a, 120)
            for a in [0.1, 0.3, 0.9]
        ]
        for spec in specs:
            assert spec.total_strength(120) == pytest.approx(7.2 * 120)

    def test_relative_budget_sweep(self):
        specs = [
            AttackSpec.relative_budget(2.0, a, 120, 4) for a in [0.1, 0.9]
        ]
        for spec in specs:
            assert spec.relative_strength(120, 4) == pytest.approx(2.0)


class TestRoundAttacker:
    def _network_with_victim(self, ports):
        net = Network(LossModel(0.0), seed=0)
        for port in ports:
            net.open_port(Address(0, port))
        return net

    def test_drum_flood_hits_both_ports(self):
        net = self._network_with_victim([PORT_PUSH_DATA, PORT_PULL_REQUEST])
        attacker = RoundAttacker(
            AttackSpec(alpha=1.0, x=10), ProtocolKind.DRUM, [0], net, seed=1
        )
        injected = attacker.inject_round()
        assert injected == 10
        assert net.channel(Address(0, PORT_PUSH_DATA)).fabricated_arrivals == 5
        assert net.channel(Address(0, PORT_PULL_REQUEST)).fabricated_arrivals == 5

    def test_shared_bounds_floods_offer_port(self):
        net = self._network_with_victim([PORT_PUSH_OFFER, PORT_PULL_REQUEST])
        attacker = RoundAttacker(
            AttackSpec(alpha=1.0, x=10),
            ProtocolKind.DRUM_SHARED_BOUNDS,
            [0],
            net,
            seed=1,
        )
        attacker.inject_round()
        assert net.channel(Address(0, PORT_PUSH_OFFER)).fabricated_arrivals == 5

    def test_no_random_ports_floods_reply_port(self):
        net = self._network_with_victim(
            [PORT_PUSH_DATA, PORT_PULL_REQUEST, PORT_PULL_REPLY]
        )
        attacker = RoundAttacker(
            AttackSpec(alpha=1.0, x=16),
            ProtocolKind.DRUM_NO_RANDOM_PORTS,
            [0],
            net,
            seed=1,
        )
        attacker.inject_round()
        assert net.channel(Address(0, PORT_PULL_REPLY)).fabricated_arrivals == 4

    def test_fractional_rate_expectation(self):
        net = self._network_with_victim([PORT_PUSH_DATA, PORT_PULL_REQUEST])
        attacker = RoundAttacker(
            AttackSpec(alpha=1.0, x=2.5), ProtocolKind.DRUM, [0], net, seed=7
        )
        total = sum(attacker.inject_round() for _ in range(4000))
        assert total / 4000 == pytest.approx(2.5, rel=0.05)

    def test_injected_total_accumulates(self):
        net = self._network_with_victim([PORT_PUSH_DATA, PORT_PULL_REQUEST])
        attacker = RoundAttacker(
            AttackSpec(alpha=1.0, x=4), ProtocolKind.DRUM, [0], net, seed=1
        )
        attacker.inject_round()
        attacker.inject_round()
        assert attacker.injected_total == 8
