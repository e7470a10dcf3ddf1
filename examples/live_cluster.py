#!/usr/bin/env python3
"""A live Drum cluster on one asyncio loop — with a real attacker.

Starts eight concurrently running Drum nodes over an in-process loopback
transport (set ``transport="udp"`` for real UDP sockets, which the same
loop reads: still one thread), launches a flooding attacker against a
quarter of them, multicasts a few messages, and reports per-message
delivery.

This is the same :class:`~repro.des.node.GossipNode` code the
deterministic measurement platform runs — here it runs on wall-clock
timers in :class:`~repro.aio.cluster.AioCluster`.

Run:  python examples/live_cluster.py
"""

import asyncio
import time

from repro.adversary import AttackSpec
from repro.aio import AioCluster, AioClusterConfig
from repro.util import Table


async def run() -> None:
    config = AioClusterConfig(
        protocol="drum",
        n=8,
        round_duration_ms=150.0,
        attack=AttackSpec(alpha=0.25, x=80),  # flood 2 of 8 nodes
    )
    cluster = AioCluster(config, seed=11)
    await cluster.start()
    print(
        f"Started {config.n} Drum nodes (round = {config.round_duration_ms:.0f} ms); "
        f"attacker flooding nodes {config.attacked_ids()} with "
        f"{config.attack.x:g} msgs/round each."
    )

    table = Table("Live multicast deliveries", ["message", "delivered to", "time [ms]"])
    try:
        for i in range(5):
            t0 = time.monotonic()
            msg_id = cluster.multicast(0, f"live-{i}".encode())
            complete = await cluster.await_delivery(
                msg_id, fraction=1.0, timeout_s=20
            )
            elapsed = (time.monotonic() - t0) * 1000.0
            got = cluster.delivered_counts()[msg_id]
            table.add_row(
                f"live-{i}",
                f"{got}/{config.num_correct}" + ("" if complete else " (timeout)"),
                f"{elapsed:.0f}",
            )
    finally:
        await cluster.stop()
    print(table)
    print()
    print("All messages reach every node despite the flood — live Drum at work.")


def main() -> None:
    asyncio.run(run())


if __name__ == "__main__":
    main()
