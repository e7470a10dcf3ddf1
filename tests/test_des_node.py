"""Tests for the full protocol node on the discrete-event engine."""

import pytest

from repro.core import ProtocolConfig
from repro.des import AttackerProcess, GossipNode
from repro.des.attacker import FabricatedPayload
from repro.adversary import AttackSpec
from repro.core.config import ProtocolKind
from repro.net.address import (
    PORT_PULL_REQUEST,
    PORT_PUSH_OFFER,
    Address,
)
from conftest import sim_env


def _cluster(n=6, kind="drum", loss=0.0, round_ms=100.0, seed=0, **cfg_kwargs):
    env = sim_env(loss=loss, latency_range_ms=(0.5, 1.5), seed=seed)
    config = ProtocolConfig(
        kind=ProtocolKind(kind), round_duration_ms=round_ms, **cfg_kwargs
    )
    deliveries = []
    nodes = {
        pid: GossipNode(
            env, pid, config, list(range(n)), seed=seed * 100 + pid,
            on_deliver=lambda p, m, t: deliveries.append((p, m.msg_id, t)),
        )
        for pid in range(n)
    }
    keys = {pid: node.keys.public for pid, node in nodes.items()}
    for node in nodes.values():
        node.learn_keys(keys)
    return env, nodes, deliveries


class TestLifecycle:
    def test_start_binds_well_known_ports(self):
        env, nodes, _ = _cluster(n=3)
        nodes[0].start()
        assert Address(0, PORT_PUSH_OFFER) in env.transport.inner._handlers
        assert Address(0, PORT_PULL_REQUEST) in env.transport.inner._handlers

    def test_double_start_rejected(self):
        env, nodes, _ = _cluster(n=3)
        nodes[0].start()
        with pytest.raises(RuntimeError):
            nodes[0].start()

    def test_stop_unbinds_everything(self):
        env, nodes, _ = _cluster(n=3)
        nodes[0].start()
        env.clock.run_until(500)
        nodes[0].stop()
        assert Address(0, PORT_PUSH_OFFER) not in env.transport.inner._handlers
        # No random ports left bound either.
        assert not nodes[0].ports.open_ports

    def test_rounds_progress_with_jitter(self):
        env, nodes, _ = _cluster(n=3, round_ms=100.0)
        for node in nodes.values():
            node.start()
        env.clock.run_until(1000)
        counts = [node.round_no for node in nodes.values()]
        assert all(7 <= c <= 12 for c in counts)


class TestDissemination:
    def test_multicast_reaches_everyone(self):
        env, nodes, deliveries = _cluster(n=6)
        for node in nodes.values():
            node.start()
        env.clock.run_until(300)
        nodes[0].multicast(b"payload")
        env.clock.run_until(3000)
        receivers = {pid for pid, _, _ in deliveries}
        assert receivers == set(range(6))

    def test_each_node_delivers_once(self):
        env, nodes, deliveries = _cluster(n=6)
        for node in nodes.values():
            node.start()
        env.clock.run_until(200)
        mid = nodes[0].multicast(b"payload").msg_id
        env.clock.run_until(5000)
        per_receiver = [pid for pid, m, _ in deliveries if m == mid]
        assert len(per_receiver) == len(set(per_receiver))

    def test_push_only_node_disseminates(self):
        env, nodes, deliveries = _cluster(n=6, kind="push")
        for node in nodes.values():
            node.start()
        env.clock.run_until(200)
        nodes[0].multicast(b"via-push")
        env.clock.run_until(3000)
        assert {pid for pid, _, _ in deliveries} == set(range(6))

    def test_pull_only_node_disseminates(self):
        env, nodes, deliveries = _cluster(n=6, kind="pull")
        for node in nodes.values():
            node.start()
        env.clock.run_until(200)
        nodes[0].multicast(b"via-pull")
        env.clock.run_until(3000)
        assert {pid for pid, _, _ in deliveries} == set(range(6))

    def test_hop_counters_increase_with_distance(self):
        env, nodes, deliveries = _cluster(n=8)
        for node in nodes.values():
            node.start()
        env.clock.run_until(200)
        mid = nodes[0].multicast(b"x").msg_id
        env.clock.run_until(6000)
        counters = {}
        for pid, m, t in deliveries:
            if m == mid:
                counters[pid] = t
        assert counters[0] == min(counters.values())

    def test_purged_messages_stop_spreading(self):
        env, nodes, deliveries = _cluster(n=6, purge_rounds=2, round_ms=50.0)
        # Only the source runs: nothing to gossip with, message purges.
        nodes[0].start()
        nodes[0].multicast(b"doomed")
        env.clock.run_until(400)
        assert len(nodes[0].buffer) == 0
        assert nodes[0].buffer.purged_total == 1


class TestSecurity:
    def test_unsigned_message_from_known_source_dropped(self):
        env, nodes, deliveries = _cluster(n=3)
        from repro.core.message import DataMessage, PushData

        nodes[1].start()
        forged = DataMessage(msg_id=(0, 987654), source=0, payload=b"evil")
        nodes[1]._on_push_data(
            Address(0, 1), PushData(sender=0, messages=(forged,))
        )
        assert (1, (0, 987654)) not in [(p, m) for p, m, _ in deliveries]
        assert nodes[1].stats["invalid_dropped"] >= 1

    def test_junk_consumes_quota_but_is_dropped(self):
        env, nodes, _ = _cluster(n=3)
        node = nodes[0]
        node.start()
        node.bounds.reset()
        before = node.bounds.remaining("push_offer")
        node._on_push_offer(Address(9, 9), FabricatedPayload(nonce=1))
        assert node.bounds.remaining("push_offer") == before - 1
        assert node.stats["invalid_dropped"] >= 1

    def test_quota_exhaustion_drops_valid_offers(self):
        env, nodes, _ = _cluster(n=3)
        node = nodes[0]
        node.start()
        node.bounds.reset()
        for i in range(node.config.view_push_size):
            node._on_push_offer(Address(9, 9), FabricatedPayload(nonce=i))
        answered_before = node.stats["offers_answered"]
        from repro.core.message import PushOffer

        node._on_push_offer(
            Address(1, 1), PushOffer(sender=1, reply_port=5000)
        )
        assert node.stats["offers_answered"] == answered_before


class TestAttacker:
    def test_attacker_injects_at_rate(self):
        env = sim_env(seed=1)
        attacker = AttackerProcess(
            env,
            AttackSpec(alpha=1.0, x=40),
            ProtocolKind.DRUM,
            victims=[0, 1],
            round_duration_ms=100.0,
            seed=2,
        )
        attacker.start()
        env.clock.run_until(1000)  # ten rounds
        attacker.stop()
        # 40 per victim per round × 2 victims × ~10 rounds.
        assert attacker.injected_total == pytest.approx(800, rel=0.15)

    def test_attack_slows_victim_reception(self):
        slow_deliveries = []
        env, nodes, deliveries = _cluster(n=6, seed=3, round_ms=100.0)
        for node in nodes.values():
            node.start()
        attacker = AttackerProcess(
            env,
            AttackSpec(alpha=0.35, x=400),
            ProtocolKind.DRUM,
            victims=[1, 2],
            round_duration_ms=100.0,
            seed=4,
        )
        attacker.start()
        env.clock.run_until(200)
        mid = nodes[0].multicast(b"x").msg_id
        env.clock.run_until(4000)
        times = {pid: t for pid, m, t in deliveries if m == mid}
        victims_t = [times.get(pid, float("inf")) for pid in (1, 2)]
        others_t = [times[pid] for pid in (3, 4, 5)]
        # Drum still gets it everywhere, but victims lag on average.
        assert set(times) >= {0, 3, 4, 5}

    def test_attacker_double_start_rejected(self):
        env = sim_env(seed=1)
        attacker = AttackerProcess(
            env, AttackSpec(alpha=1.0, x=4), ProtocolKind.DRUM, [0], seed=2
        )
        attacker.start()
        with pytest.raises(RuntimeError):
            attacker.start()
