"""Datagrams exchanged by the simulated network."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.net.address import Address


@dataclass(frozen=True, slots=True)
class Packet:
    """An immutable datagram.

    ``sender`` is the claimed source endpoint.  Channels are insecure, so
    nothing authenticates this field — fabricated packets carry whatever
    sender the adversary chooses.  Only ``fabricated`` (bookkeeping that a
    real network would not carry) lets the evaluation layer tell attack
    traffic from valid traffic when computing metrics; protocol logic
    never reads it.
    """

    dst: Address
    payload: Any
    sender: Optional[Address] = None
    fabricated: bool = False
