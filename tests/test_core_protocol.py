"""Tests for the object-level round protocol (GossipProcess)."""

from repro.core import GossipProcess, ProtocolConfig
from repro.core.message import PullRequest, PushData
from repro.net import (
    Address,
    LossModel,
    Network,
    PORT_PULL_REQUEST,
    PORT_PUSH_DATA,
    Packet,
)


DRUM = ProtocolConfig.drum()


def _lossless_pair(config, n=6):
    """Two live processes (0 has M, 1 does not) plus silent others."""
    net = Network(LossModel(0.0), seed=1)
    members = list(range(n))
    procs = {}
    for pid in (0, 1):
        procs[pid] = GossipProcess(
            pid, config, members, net, seed=pid + 10, has_message=(pid == 0)
        )
    for pid in range(2, n):
        net.register_node(pid)
    keys = {pid: p.keys.public for pid, p in procs.items()}
    for p in procs.values():
        p.learn_keys(keys)
    return net, procs


def _run_round(net, procs, attacker=None):
    plist = list(procs.values())
    for p in plist:
        p.begin_round()
    for p in plist:
        p.send_phase()
    if attacker is not None:
        attacker()
    for p in plist:
        p.receive_phase()
    for p in plist:
        p.reply_phase()
    for p in plist:
        p.data_phase()
    net.end_round()
    for p in plist:
        p.end_round()


class TestDrumProcess:
    def test_ports_open_on_construction(self):
        net, procs = _lossless_pair(DRUM)
        assert net.is_open(Address(0, PORT_PUSH_DATA))
        assert net.is_open(Address(0, PORT_PULL_REQUEST))

    def test_message_propagates_in_tiny_group(self):
        net, procs = _lossless_pair(DRUM, n=2)
        for _ in range(5):
            _run_round(net, procs)
            if procs[1].has_message:
                break
        assert procs[1].has_message
        assert procs[1].delivery_round >= 1
        assert procs[1].delivery_path in ("push", "pull")

    def test_source_metadata(self):
        _, procs = _lossless_pair(DRUM)
        assert procs[0].delivery_round == 0
        assert procs[0].delivery_path == "source"

    def test_rounds_advance(self):
        net, procs = _lossless_pair(DRUM)
        _run_round(net, procs)
        _run_round(net, procs)
        assert procs[0].round == 2

    def test_reply_ports_expire(self):
        net, procs = _lossless_pair(DRUM)
        lifetime = procs[0].config.random_port_lifetime
        _run_round(net, procs)
        open_after_one = set(net.open_ports(0))
        for _ in range(lifetime + 1):
            _run_round(net, procs)
        # Random ports from round 1 must be gone; well-known ports stay.
        from repro.net.address import RANDOM_PORT_BASE

        stale = {
            p for p in open_after_one
            if p >= RANDOM_PORT_BASE and net.is_open(Address(0, p))
        }
        current = set(net.open_ports(0))
        assert stale <= current  # sanity: helper usable
        old_random = {p for p in open_after_one if p >= RANDOM_PORT_BASE}
        assert not (old_random & current)


class TestPushProcess:
    def test_no_pull_port(self):
        net, procs = _lossless_pair(ProtocolConfig.push())
        assert not net.is_open(Address(0, PORT_PULL_REQUEST))

    def test_propagation_via_push_only(self):
        net, procs = _lossless_pair(ProtocolConfig.push(), n=2)
        for _ in range(5):
            _run_round(net, procs)
        assert procs[1].has_message
        assert procs[1].delivery_path == "push"


class TestPullProcess:
    def test_no_push_port(self):
        net, procs = _lossless_pair(ProtocolConfig.pull())
        assert not net.is_open(Address(0, PORT_PUSH_DATA))

    def test_propagation_via_pull_only(self):
        net, procs = _lossless_pair(ProtocolConfig.pull(), n=2)
        for _ in range(5):
            _run_round(net, procs)
        assert procs[1].has_message
        assert procs[1].delivery_path == "pull"


class TestSanityChecks:
    def test_junk_on_push_port_ignored(self):
        net, procs = _lossless_pair(DRUM)

        def attacker():
            net.send(Packet(dst=Address(1, PORT_PUSH_DATA), payload="junk"))

        _run_round(net, procs, attacker)
        # No crash, no delivery from junk.
        assert procs[1].delivery_path in (None, "push", "pull")

    def test_junk_pull_request_ignored(self):
        net, procs = _lossless_pair(DRUM)

        def attacker():
            net.send(
                Packet(dst=Address(0, PORT_PULL_REQUEST), payload=12345)
            )

        _run_round(net, procs, attacker)  # must not raise

    def test_unsealed_reply_port_of_wrong_type_dropped(self):
        net, procs = _lossless_pair(DRUM)
        bogus = PullRequest(sender=1, digest=procs[1]._digest(), reply_port="nope")
        procs[0].begin_round()
        procs[0]._answer_pull_request(bogus)  # must not raise or send


class TestFloodedChannels:
    def test_flooded_push_channel_blocks_reception(self):
        """With a massive flood, the probability of accepting the one
        valid push in a round is tiny."""
        successes = 0
        for seed in range(40):
            net = Network(LossModel(0.0), seed=seed)
            procs = {
                pid: GossipProcess(
                    pid, DRUM, [0, 1], net, seed=seed * 2 + pid,
                    has_message=(pid == 0),
                )
                for pid in (0, 1)
            }
            keys = {pid: p.keys.public for pid, p in procs.items()}
            for p in procs.values():
                p.learn_keys(keys)

            def attacker():
                net.flood(Address(1, PORT_PUSH_DATA), 500)
                net.flood(Address(1, PORT_PULL_REQUEST), 500)

            _run_round(net, procs, attacker)
            if procs[1].delivery_path == "push":
                successes += 1
        assert successes <= 6

    def test_pull_still_works_under_push_flood(self):
        """Flooding only the push port must not stop pull reception —
        the resource-separation property."""
        deliveries = 0
        for seed in range(30):
            net = Network(LossModel(0.0), seed=seed)
            procs = {
                pid: GossipProcess(
                    pid, DRUM, [0, 1], net, seed=seed * 2 + pid,
                    has_message=(pid == 0),
                )
                for pid in (0, 1)
            }
            keys = {pid: p.keys.public for pid, p in procs.items()}
            for p in procs.values():
                p.learn_keys(keys)

            def attacker():
                net.flood(Address(1, PORT_PUSH_DATA), 500)

            _run_round(net, procs, attacker)
            if procs[1].has_message:
                deliveries += 1
        # Pull from 0 succeeds (1 always chooses 0 in a 2-process group).
        assert deliveries >= 25
