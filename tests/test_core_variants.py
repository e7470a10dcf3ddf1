"""Tests for the Section 9 ablation variants."""

from repro.core import DrumSharedBoundsProcess, GossipProcess, ProtocolConfig
from repro.net import (
    Address,
    LossModel,
    Network,
    PORT_PULL_REPLY,
    PORT_PULL_REQUEST,
    PORT_PUSH_DATA,
    PORT_PUSH_OFFER,
)


NO_RANDOM_PORTS = ProtocolConfig.drum_no_random_ports()
SHARED_BOUNDS = ProtocolConfig.drum_shared_bounds()


def _pair(cls, config, n=2):
    net = Network(LossModel(0.0), seed=1)
    members = list(range(n))
    procs = {
        pid: cls(pid, config, members, net, seed=pid + 5,
                 has_message=(pid == 0))
        for pid in range(min(2, n))
    }
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


class TestDrumNoRandomPorts:
    def test_well_known_reply_port_open(self):
        net, procs = _pair(GossipProcess, NO_RANDOM_PORTS)
        assert net.is_open(Address(0, PORT_PULL_REPLY))

    def test_propagates_without_attack(self):
        net, procs = _pair(GossipProcess, NO_RANDOM_PORTS)
        for _ in range(6):
            _run_round(net, procs)
        assert procs[1].has_message

    def test_reply_port_flood_blocks_pull(self):
        """Flooding the well-known reply port starves pull reception —
        the vulnerability random ports remove."""
        pull_deliveries = 0
        for seed in range(30):
            net = Network(LossModel(0.0), seed=seed)
            procs = {
                pid: GossipProcess(
                    pid, NO_RANDOM_PORTS, [0, 1], net, seed=seed + pid * 100,
                    has_message=(pid == 0),
                )
                for pid in (0, 1)
            }
            keys = {pid: p.keys.public for pid, p in procs.items()}
            for p in procs.values():
                p.learn_keys(keys)

            def attacker():
                # Attack the victim's push port and reply port; leave the
                # pull-request port alone so only the reply path is tested.
                net.flood(Address(1, PORT_PUSH_DATA), 500)
                net.flood(Address(1, PORT_PULL_REPLY), 500)

            _run_round(net, procs, attacker)
            if procs[1].has_message:
                pull_deliveries += 1
        assert pull_deliveries <= 6


class TestDrumSharedBounds:
    def test_uses_offer_port_not_data_port(self):
        net, procs = _pair(DrumSharedBoundsProcess, SHARED_BOUNDS)
        assert net.is_open(Address(0, PORT_PUSH_OFFER))
        assert not net.is_open(Address(0, PORT_PUSH_DATA))

    def test_push_handshake_works_without_attack(self):
        net, procs = _pair(DrumSharedBoundsProcess, SHARED_BOUNDS)
        delivered_via = None
        for _ in range(8):
            _run_round(net, procs)
            if procs[1].has_message:
                delivered_via = procs[1].delivery_path
                break
        assert procs[1].has_message
        assert delivered_via in ("push", "pull")

    def test_flood_starves_push_replies(self):
        """Flooding the well-known ports consumes the shared quota that
        valid push-replies needed: the victim cannot send via push."""
        sends = 0
        for seed in range(30):
            net = Network(LossModel(0.0), seed=seed)
            procs = {
                pid: DrumSharedBoundsProcess(
                    pid, SHARED_BOUNDS, [0, 1], net, seed=seed + pid * 100,
                    has_message=(pid == 0),
                )
                for pid in (0, 1)
            }
            keys = {pid: p.keys.public for pid, p in procs.items()}
            for p in procs.values():
                p.learn_keys(keys)

            def attacker():
                # Flood the HOLDER's control ports: its own push-replies
                # then lose the shared quota, so it cannot push M out.
                net.flood(Address(0, PORT_PUSH_OFFER), 500)
                net.flood(Address(0, PORT_PULL_REQUEST), 500)

            _run_round(net, procs, attacker)
            if procs[1].delivery_path == "push":
                sends += 1
        assert sends <= 6

    def test_shared_quota_value(self):
        cfg = ProtocolConfig.drum_shared_bounds(fan_out=4)
        assert cfg.shared_in_bound == 6
