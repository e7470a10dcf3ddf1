"""Protocol core: Drum, Push, and Pull building blocks.

This package holds everything the protocols themselves are made of —
configuration, message types, digests, buffers, view selection, resource
bounds, and random-port management — plus the exact engine's node:
one :class:`GossipProcess` runs every protocol kind from its config,
and :class:`DrumSharedBoundsProcess` adds the Figure 12b push-offer
handshake.  The full asynchronous node (push-offer handshake, timers,
purging) lives in :mod:`repro.des`.
"""

from repro.core.config import ProtocolConfig, ProtocolKind
from repro.core.message import (
    DataMessage,
    Digest,
    PullRequest,
    PullReply,
    PushData,
    PushOffer,
    PushReply,
)
from repro.core.buffer import MessageBuffer
from repro.core.bounds import ResourceBounds
from repro.core.ports import RandomPortAllocator
from repro.core.views import select_view
from repro.core.protocol import GossipProcess
from repro.core.variants import DrumSharedBoundsProcess

__all__ = [
    "DataMessage",
    "Digest",
    "DrumSharedBoundsProcess",
    "GossipProcess",
    "MessageBuffer",
    "ProtocolConfig",
    "ProtocolKind",
    "PullReply",
    "PullRequest",
    "PushData",
    "PushOffer",
    "PushReply",
    "RandomPortAllocator",
    "ResourceBounds",
    "select_view",
]
