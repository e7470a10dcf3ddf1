"""The wall-clock cluster (`repro.aio.AioCluster`) end to end: small
groups on loopback, with and without a flood."""

import asyncio

import pytest

from repro.adversary import AttackSpec
from repro.aio import AioCluster, AioClusterConfig


async def multicast_once(cluster, payload, *, timeout_s):
    """Start, multicast from node 0, wait for the whole group, stop."""
    await cluster.start()
    try:
        mid = cluster.multicast(0, payload)
        return await cluster.await_delivery(
            mid, fraction=1.0, timeout_s=timeout_s
        )
    finally:
        await cluster.stop()


class TestLiveCluster:
    def test_multicast_delivers_to_all(self):
        cfg = AioClusterConfig(protocol="drum", n=6, round_duration_ms=80.0)
        cluster = AioCluster(cfg, seed=1)
        assert asyncio.run(multicast_once(cluster, b"hello", timeout_s=10))

    def test_under_attack_drum_still_delivers(self):
        cfg = AioClusterConfig(
            protocol="drum",
            n=6,
            round_duration_ms=80.0,
            attack=AttackSpec(alpha=0.34, x=60),
        )
        cluster = AioCluster(cfg, seed=2)
        assert asyncio.run(multicast_once(cluster, b"attacked", timeout_s=15))
        assert cluster.attackers and not cluster.attackers[0].running

    def test_result_packaging(self):
        cfg = AioClusterConfig(protocol="drum", n=4, round_duration_ms=60.0)
        cluster = AioCluster(cfg, seed=3)
        asyncio.run(multicast_once(cluster, b"x", timeout_s=10))
        result = cluster.result(send_rate=1.0, messages_sent=1)
        assert result.n == 4
        assert result.deliveries

    def test_unstarted_result_rejected(self):
        cluster = AioCluster(AioClusterConfig(n=4), seed=4)
        with pytest.raises(RuntimeError, match="never started"):
            cluster.result(send_rate=1.0, messages_sent=0)
