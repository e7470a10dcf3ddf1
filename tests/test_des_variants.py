"""The Section 9 variants on the full-protocol (DES) platform."""

import pytest

from repro.adversary import AttackSpec
from repro.core import ProtocolConfig, ProtocolKind
from repro.des import AttackerProcess, GossipNode
from repro.net.address import PORT_PULL_REPLY, Address
from conftest import sim_env


def _cluster(kind, n=8, seed=0, round_ms=100.0):
    env = sim_env(loss=0.0, latency_range_ms=(0.5, 1.5), seed=seed)
    config = ProtocolConfig(kind=ProtocolKind(kind), round_duration_ms=round_ms)
    deliveries = []
    nodes = {
        pid: GossipNode(
            env, pid, config, list(range(n)), seed=seed * 131 + pid,
            on_deliver=lambda p, m, t: deliveries.append((p, m.msg_id)),
        )
        for pid in range(n)
    }
    keys = {pid: node.keys.public for pid, node in nodes.items()}
    for node in nodes.values():
        node.learn_keys(keys)
    return env, nodes, deliveries


class TestNoRandomPortsVariant:
    def test_binds_well_known_reply_port(self):
        env, nodes, _ = _cluster("drum-no-random-ports")
        nodes[0].start()
        assert Address(0, PORT_PULL_REPLY) in env.transport.inner._handlers

    def test_disseminates_without_attack(self):
        env, nodes, deliveries = _cluster("drum-no-random-ports")
        for node in nodes.values():
            node.start()
        env.clock.run_until(200)
        nodes[0].multicast(b"wkp")
        env.clock.run_until(4000)
        assert {p for p, _ in deliveries} == set(range(8))

    def test_reply_port_flood_hurts_this_variant_more(self):
        """The same attack, aimed per the Section 9 model, slows the
        well-known-ports variant far more than real Drum."""

        def completion_time(kind, seed):
            env, nodes, deliveries = _cluster(kind, seed=seed)
            for node in nodes.values():
                node.start()
            attacker = AttackerProcess(
                env,
                AttackSpec(alpha=0.5, x=300),
                ProtocolKind(kind),
                victims=[0, 1, 2, 3],
                round_duration_ms=100.0,
                seed=seed + 1,
            )
            attacker.start()
            env.clock.run_until(200)
            mid = nodes[0].multicast(b"x").msg_id
            horizon = 20000.0
            env.clock.run_until(200 + horizon)
            got = {p for p, m in deliveries if m == mid}
            return len(got)

        drum_reached = sum(completion_time("drum", s) for s in range(3))
        wkp_reached = sum(
            completion_time("drum-no-random-ports", s) for s in range(3)
        )
        assert drum_reached >= wkp_reached


class TestSharedBoundsVariant:
    def test_shared_quota_constructed(self):
        env, nodes, _ = _cluster("drum-shared-bounds")
        node = nodes[0]
        assert node.bounds.bound_for("push_offer") == 6
        assert node.bounds.bound_for("push_reply") == 6
        assert node.bounds.bound_for("push_data") > 6  # data not shared

    def test_flood_starves_push_replies_in_full_node(self):
        env, nodes, _ = _cluster("drum-shared-bounds")
        node = nodes[0]
        node.start()
        node.bounds.reset()
        from repro.des.attacker import FabricatedPayload

        # Exhaust the shared pool with junk "pull requests".
        for i in range(10):
            node._on_pull_request(Address(9, 9), FabricatedPayload(nonce=i))
        # A push-reply now finds no quota.
        from repro.core.message import Digest, PushReply

        before = node.stats["data_messages_sent"]
        node._on_push_reply(
            Address(1, 1),
            PushReply(sender=1, digest=Digest.of([]), data_port=5000),
        )
        assert node.stats["data_messages_sent"] == before
        assert node.bounds.rejected["push_reply"] >= 1

    def test_disseminates_without_attack(self):
        env, nodes, deliveries = _cluster("drum-shared-bounds")
        for node in nodes.values():
            node.start()
        env.clock.run_until(200)
        nodes[0].multicast(b"shared")
        env.clock.run_until(4000)
        assert {p for p, _ in deliveries} == set(range(8))
