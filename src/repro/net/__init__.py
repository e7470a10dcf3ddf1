"""Simulated network substrate.

Provides the building blocks the protocols run on:

- :class:`~repro.net.address.Address` — (node, port) endpoints and the
  well-known port numbers used by the protocols.
- :class:`~repro.net.packet.Packet` — an immutable datagram.
- :class:`~repro.net.link.LossModel` — i.i.d. Bernoulli link loss, equal on
  all links (the paper's network model).
- :class:`~repro.net.channel.BoundedChannel` — a per-port, per-round inbox
  with bounded random acceptance; unread messages are discarded at round
  end, exactly as Drum prescribes.
- :class:`~repro.net.network.Network` — the fabric tying nodes, ports,
  loss, and channels together for the round-based simulator.
- :class:`~repro.net.transport.Transport` — the datagram interface the
  cluster host sends through (in-process loopback, or real UDP on the
  asyncio loop: :class:`repro.aio.transport.UdpTransport`).
"""

from repro.net.address import (
    PORT_PULL_REPLY,
    PORT_PULL_REQUEST,
    PORT_PUSH_DATA,
    PORT_PUSH_OFFER,
    RANDOM_PORT_BASE,
    Address,
)
from repro.net.channel import BoundedChannel
from repro.net.link import LossModel
from repro.net.network import Network
from repro.net.packet import Packet
from repro.net.transport import Transport

__all__ = [
    "Address",
    "BoundedChannel",
    "LossModel",
    "Network",
    "PORT_PULL_REPLY",
    "PORT_PULL_REQUEST",
    "PORT_PUSH_DATA",
    "PORT_PUSH_OFFER",
    "Packet",
    "RANDOM_PORT_BASE",
    "Transport",
]
