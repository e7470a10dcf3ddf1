"""End-to-end: a wall-clock cluster handed its own UDP transport."""

import asyncio

from repro.aio import AioCluster, AioClusterConfig
from repro.aio.transport import AioUdpBridge
from repro.net import UdpTransport


def multicast_over(protocol, base_port, payload, *, seed):
    """Four nodes on ``UdpTransport(base_port=...)``; did one multicast
    reach all of them?"""
    transport = AioUdpBridge(
        UdpTransport(base_port=base_port, ports_per_node=48)
    )
    config = AioClusterConfig(protocol=protocol, n=4, round_duration_ms=120.0)
    cluster = AioCluster(config, transport=transport, seed=seed)

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
