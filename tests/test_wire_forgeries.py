"""Well-typed wire messages with forged fields cost a drop, never a crash.

A message of the right class can still carry fields no correct node
sends: a negative or non-integer sender, a negative port, a digest that
is not a :class:`Digest`, a message batch that is not a tuple.  Every
DES handler must count such a message in ``invalid_dropped`` and carry
on; on the asyncio stack a raising handler would land in
``node_errors`` and fail every ``await_delivery``.
"""

import asyncio

from repro.aio import AioCluster, AioClusterConfig
from repro.core.message import (
    Digest,
    PullReply,
    PullRequest,
    PushData,
    PushOffer,
    PushReply,
)
from repro.net.address import PORT_PUSH_OFFER, RANDOM_PORT_BASE, Address
from test_des_node import _cluster

PORT = RANDOM_PORT_BASE + 7
EMPTY = Digest.of(())

#: (handler, forged payload) pairs; each must count one drop.
FORGERIES = [
    ("_on_push_offer", PushOffer(sender=-1, reply_port=PORT)),
    ("_on_push_offer", PushOffer(sender="zz", reply_port=PORT)),
    ("_on_push_offer", PushOffer(sender=True, reply_port=PORT)),
    ("_on_push_offer", PushOffer(sender=0, reply_port=-5)),
    ("_on_push_reply", PushReply(sender=0, digest=5, data_port=PORT)),
    ("_on_push_reply", PushReply(sender=-3, digest=EMPTY, data_port=PORT)),
    ("_on_pull_request", PullRequest(sender=0, digest=5, reply_port=PORT)),
    ("_on_pull_request", PullRequest(sender=2.0, digest=EMPTY, reply_port=PORT)),
    ("_on_push_data", PushData(sender=0, messages=5)),
    ("_on_push_data", PushData(sender="zz", messages=())),
    ("_on_pull_data", PullReply(sender=0, messages=None)),
    ("_on_pull_data", PullReply(sender=-1, messages=())),
]


def _forge(node) -> None:
    """Feed every forgery to ``node``, each with a fresh quota, so every
    one reaches its field checks."""
    src = Address(0, PORT_PUSH_OFFER)
    for handler, payload in FORGERIES:
        node.bounds.reset()
        getattr(node, handler)(src, payload)


def test_des_node_drops_forged_fields_and_still_delivers():
    env, nodes, deliveries = _cluster(n=8)
    for node in nodes.values():
        node.start()
    env.clock.run_until(300)
    nodes[0].multicast(b"payload")
    env.clock.run_until(600)
    victim = nodes[1]
    before = victim.stats["invalid_dropped"]
    _forge(victim)
    assert victim.stats["invalid_dropped"] - before == len(FORGERIES)
    env.clock.run_until(5000)
    assert {pid for pid, _, _ in deliveries} == set(range(8))


def test_aio_group_drops_forged_fields_and_still_delivers():
    async def go():
        cluster = AioCluster(
            AioClusterConfig(
                n=8, malicious_fraction=0.0, loss=0.0,
                round_duration_ms=50.0,
            ),
            seed=7,
        )
        await cluster.start()
        try:
            victim = cluster.nodes[1]
            before = victim.stats["invalid_dropped"]
            mid = cluster.multicast(0, b"payload")
            victim.env.schedule(0.0, _forge, victim)
            delivered = await cluster.await_delivery(
                mid, fraction=1.0, timeout_s=10.0
            )
        finally:
            await cluster.stop()
        assert delivered
        assert cluster.node_errors == []
        assert victim.stats["invalid_dropped"] - before == len(FORGERIES)

    asyncio.run(go())
