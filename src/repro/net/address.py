"""Endpoint addressing.

Each process owns a numeric node id and a port space.  Three well-known
ports exist on every node — push-offer, push-data, and pull-request —
plus a region of *random* ports that the protocols allocate per round and
advertise inside encrypted envelopes (see :mod:`repro.crypto.encryption`).
An adversary can flood any well-known port but cannot predict a live
random port, which is the property Drum's port-randomisation leverages.
"""

from __future__ import annotations

from collections import namedtuple

#: Well-known port on which push-offers are received.
PORT_PUSH_OFFER = 1
#: Well-known port on which push data messages are received (used by the
#: round-based simulator, which models push without the offer handshake).
PORT_PUSH_DATA = 2
#: Well-known port on which pull-requests are received.
PORT_PULL_REQUEST = 3
#: Well-known port for pull-replies — only used by the Section 9
#: "no random ports" ablation, where it becomes attackable.
PORT_PULL_REPLY = 4
#: First port number of the dynamically allocated (random) port region.
RANDOM_PORT_BASE = 1024


class Address(namedtuple("Address", ("node", "port"))):
    """A (node id, port) endpoint.

    A validated tuple, so every handler lookup hashes and compares in C:
    ``hash(Address(n, p)) == hash((n, p))``, and it orders as the pair.
    """

    __slots__ = ()

    def __new__(cls, node: int, port: int) -> "Address":
        if node < 0:
            raise ValueError(f"node id must be >= 0, got {node}")
        if port < 0:
            raise ValueError(f"port must be >= 0, got {port}")
        return tuple.__new__(cls, (node, port))

    def is_well_known(self) -> bool:
        """True when the port is one of the protocol's fixed ports."""
        return self.port < RANDOM_PORT_BASE

    def with_port(self, port: int) -> "Address":
        """Return the same node with a different port."""
        return Address(self.node, port)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.node}:{self.port}"
