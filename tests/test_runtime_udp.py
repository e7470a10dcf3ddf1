"""End-to-end: a wall-clock cluster handed its own UDP transport."""

import asyncio
import builtins
import pickle
import socket
import threading

import pytest

from repro.adversary import AttackSpec
from repro.aio import AioCluster, AioClusterConfig, UdpTransport
from repro.net import Address
from repro.net.address import PORT_PUSH_OFFER


def udp(base_port, ports_per_node=64):
    """A UDP transport on ``base_port``, ready to hand to a cluster."""
    return UdpTransport(base_port=base_port, ports_per_node=ports_per_node)


def multicast_over(protocol, base_port, payload, *, seed):
    """Four nodes on ``UdpTransport(base_port=...)``; did one multicast
    reach all of them?"""
    config = AioClusterConfig(protocol=protocol, n=4, round_duration_ms=120.0)
    cluster = AioCluster(config, transport=udp(base_port, 48), seed=seed)

    async def go():
        await cluster.start()
        try:
            mid = cluster.multicast(0, payload)
            return await cluster.await_delivery(
                mid, fraction=1.0, timeout_s=20
            )
        finally:
            await cluster.stop()

    return asyncio.run(go())


class TestUdpLiveCluster:
    def test_multicast_over_udp(self):
        """Four Drum nodes over UDP/localhost deliver a multicast."""
        assert multicast_over("drum", 26000, b"over-the-wire", seed=5), (
            "multicast failed to reach every node over UDP"
        )

    def test_pull_only_over_udp(self):
        assert multicast_over("pull", 27000, b"pulled", seed=6)


#: n = 8 groups over real sockets, each case on ports of its own:
#: every protocol, a flood on the well-known ports, and churn.
UDP_GROUPS = [
    pytest.param(dict(protocol=protocol), 40000 + 1000 * i, id=protocol)
    for i, protocol in enumerate(
        ("drum", "push", "pull", "drum-no-random-ports", "drum-shared-bounds")
    )
] + [
    pytest.param(
        dict(malicious_fraction=0.25, attack=AttackSpec(alpha=0.25, x=32)),
        45000, id="drum-attacked",
    ),
    pytest.param(
        dict(faults="join@3:0.25; leave@6:0.2; expel@8:0.2"),
        46000, id="drum-churn",
    ),
]


def deliver_over_udp(fields, base_port, *, seed=40, before=None):
    """One multicast through an n = 8 UDP group with 50 ms rounds:
    returns (delivered to every correct node, the cluster).  ``before``
    runs on the started cluster first."""
    config = AioClusterConfig(n=8, round_duration_ms=50.0, **fields)
    cluster = AioCluster(config, transport=udp(base_port), seed=seed)

    async def go():
        await cluster.start()
        try:
            if before is not None:
                await before(cluster)
            mid = cluster.multicast(0, b"udp-pin")
            return await cluster.await_delivery(
                mid, fraction=1.0, timeout_s=15.0
            )
        finally:
            await cluster.stop()

    return asyncio.run(go()), cluster


@pytest.mark.parametrize("fields, base_port", UDP_GROUPS)
def test_one_multicast_reaches_every_correct_node_over_udp(fields, base_port):
    delivered, cluster = deliver_over_udp(fields, base_port)
    assert delivered
    assert cluster.node_errors == []


def test_no_thread_is_started(monkeypatch):
    """The loop reads every socket itself: an n = 8 group delivers with
    ``threading.Thread.start`` refusing."""

    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    delivered, cluster = deliver_over_udp({}, 47000)
    assert delivered
    assert cluster.node_errors == []


class _Exec:
    """Unpickles to a call of ``builtins.exec``."""

    def __reduce__(self):
        return exec, ("import builtins; builtins.udp_pwned = True",)


def test_a_crafted_datagram_runs_nothing_and_is_a_counted_drop():
    good = pickle.dumps((Address(3, PORT_PUSH_OFFER), b"x"))
    crafted = [
        pickle.dumps((Address(3, PORT_PUSH_OFFER), _Exec())),
        pickle.dumps(_Exec()),
        good[: len(good) // 2],  # truncated
        pickle.dumps([Address(3, 1), b"x"]),  # not a pair
        pickle.dumps(("3:1", b"x")),  # no address
        b"\x00garbage\xff" * 8,
    ]

    async def flood(cluster):
        transport = cluster.transport.inner
        port = transport._udp_port(Address(1, PORT_PUSH_OFFER))
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            for data in crafted:
                sock.sendto(data, (transport.host, port))
        for _ in range(200):
            if transport.dropped >= len(crafted):
                break
            await asyncio.sleep(0.01)

    delivered, cluster = deliver_over_udp({}, 48000, before=flood)
    assert not hasattr(builtins, "udp_pwned")
    assert cluster.transport.inner.dropped == len(crafted)
    assert delivered
    assert cluster.node_errors == []


class TestPortRange:
    """A UDP group must fit below port 65536; 65472 + 4·16 fits four."""

    def start(self, config, transport):
        cluster = AioCluster(config, transport=transport, seed=3)

        async def go():
            try:
                await cluster.start()
                mid = cluster.multicast(0, b"fits")
                return await cluster.await_delivery(mid, timeout_s=10.0)
            finally:
                await cluster.stop()

        return asyncio.run(go())

    @pytest.mark.parametrize(
        "n, faults", [(5, None), (4, "join@3:0.25")], ids=["n", "joiners"]
    )
    def test_a_group_past_the_range_is_refused_before_any_bind(
        self, n, faults
    ):
        transport = udp(65472, 16)
        config = AioClusterConfig(n=n, round_duration_ms=50.0, faults=faults)
        with pytest.raises(ValueError, match="5 ids .* at most 4 ids"):
            self.start(config, transport)
        assert transport.clock is None and transport._sockets == {}

    def test_the_default_geometry_names_its_limit(self):
        with pytest.raises(ValueError, match="at most 711 ids"):
            self.start(AioClusterConfig(n=712, transport="udp"), None)

    def test_a_group_that_fits_delivers(self):
        config = AioClusterConfig(n=4, round_duration_ms=50.0)
        transport = udp(65472, 16)
        assert self.start(config, transport)
        assert transport._sockets == {}
