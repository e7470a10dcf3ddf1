"""Protocol message types.

The round-based simulator exchanges :class:`PushData`, :class:`PullRequest`
and :class:`PullReply`; the full node in :mod:`repro.des` additionally
uses the push-offer handshake (:class:`PushOffer` / :class:`PushReply`)
so that data is only transmitted when the target is actually missing it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from repro.crypto.certificates import Certificate
from repro.crypto.encryption import SealedEnvelope
from repro.crypto.signatures import Signature

class MessageIdFactory:
    """Mints (source, serial) message ids from a private serial counter.

    Each cluster/run owns one factory, so the serial stream always
    starts at 0 for that run — repeated seeded DES runs mint identical
    ids and their result envelopes compare byte-identical without any
    serial canonicalisation.  (A process-global counter would leak the
    history of *prior* in-process runs into the serials.)

    ``next(itertools.count())`` is atomic under the GIL, so one factory
    may be shared across threads without a lock.
    """

    __slots__ = ("_serials",)

    def __init__(self) -> None:
        self._serials = itertools.count()

    def fresh(self, source: int) -> Tuple[int, int]:
        """Mint the next (source, serial) id."""
        return (source, next(self._serials))


#: Module-level fallback factory for nodes constructed without a
#: cluster (direct :class:`~repro.des.node.GossipNode` use, tests).
#: Ids from it are only unique per process — cluster runners must pass
#: their own :class:`MessageIdFactory` for reproducible serials.
_default_ids = MessageIdFactory()


def fresh_message_id(source: int) -> Tuple[int, int]:
    """Mint a process-unique (source, serial) id from the default factory."""
    return _default_ids.fresh(source)


@dataclass(frozen=True, slots=True)
class DataMessage:
    """An application multicast message.

    ``round_counter`` implements the paper's hop-count latency
    measurement: the source logs 0 and ships the message with counter 1;
    every receiver logs the counter it sees, and every process increments
    the counters of all buffered messages once per local round.
    """

    msg_id: Tuple[int, int]
    source: int
    payload: object
    round_counter: int = 0
    signature: Optional[Signature] = None
    certificate: Optional[Certificate] = None
    #: Memoised sha256 of the pickled signed body.  The signed body
    #: excludes the mutating ``round_counter``, so the digest survives
    #: :meth:`aged` copies — sign/verify stops re-serialising the same
    #: message at every hop.  Excluded from equality/hash: two messages
    #: are the same message whether or not their digest was computed.
    _body_digest: Optional[str] = field(
        default=None, repr=False, compare=False
    )

    def aged(self, rounds: int = 1) -> "DataMessage":
        """Copy with the round counter advanced by ``rounds`` elapsed rounds."""
        return DataMessage(
            msg_id=self.msg_id,
            source=self.source,
            payload=self.payload,
            round_counter=self.round_counter + rounds,
            signature=self.signature,
            certificate=self.certificate,
            _body_digest=self._body_digest,
        )

    def signed_body(self) -> tuple:
        """The tuple a source signature covers (counter excluded: it mutates)."""
        return (self.msg_id, self.source, self.payload)

    def body_digest(self) -> str:
        """Digest of :meth:`signed_body`, computed once per message body.

        Byte-identical to what :func:`repro.crypto.signatures.sign` and
        ``verify`` derive from the body themselves; they accept it via
        their ``digest=`` parameter to skip the pickle+sha256 work on
        every verification hop.
        """
        digest = self._body_digest
        if digest is None:
            from repro.crypto.signatures import payload_digest

            digest = payload_digest(self.signed_body())
            object.__setattr__(self, "_body_digest", digest)
        return digest

    def wire_size(self) -> int:
        """Rough wire size in bytes (the paper uses 50-byte payloads)."""
        payload_len = len(self.payload) if hasattr(self.payload, "__len__") else 8
        return 32 + payload_len


@dataclass(frozen=True, slots=True)
class Digest:
    """A summary of the message ids a process currently buffers."""

    message_ids: FrozenSet[Tuple[int, int]]

    @classmethod
    def of(cls, ids) -> "Digest":
        return cls(message_ids=frozenset(ids))

    def __contains__(self, msg_id: Tuple[int, int]) -> bool:
        return msg_id in self.message_ids

    def __len__(self) -> int:
        return len(self.message_ids)

    def missing_from(self, ids) -> FrozenSet[Tuple[int, int]]:
        """Ids in ``ids`` that this digest does not cover."""
        return frozenset(i for i in ids if i not in self.message_ids)

    def wire_size(self) -> int:
        return 16 + 8 * len(self.message_ids)


@dataclass(frozen=True, slots=True)
class PushOffer:
    """Step 1 of the push handshake: 'I have data; reply with a digest'.

    ``reply_port`` is the sender's randomly chosen port for the
    push-reply, sealed under the target's public key.
    """

    sender: int
    reply_port: SealedEnvelope

    def wire_size(self) -> int:
        return 24


@dataclass(frozen=True, slots=True)
class PushReply:
    """Step 2: the target's digest plus its sealed random data port."""

    sender: int
    digest: Digest
    data_port: SealedEnvelope

    def wire_size(self) -> int:
        return 24 + self.digest.wire_size()


@dataclass(frozen=True, slots=True)
class PushData:
    """Step 3 (or the whole push in the round simulator): data messages."""

    sender: int
    messages: Tuple[DataMessage, ...]

    def wire_size(self) -> int:
        return 16 + sum(m.wire_size() for m in self.messages)


@dataclass(frozen=True, slots=True)
class PullRequest:
    """A digest of what the requester has, plus where to send the reply.

    ``reply_port`` is sealed for the target when random ports are in use;
    the no-random-ports ablation sends a plain well-known port number.
    """

    sender: int
    digest: Digest
    reply_port: object  # SealedEnvelope or plain int for the ablation

    def wire_size(self) -> int:
        return 24 + self.digest.wire_size()


@dataclass(frozen=True, slots=True)
class PullReply:
    """Messages the replier has that were missing from the digest."""

    sender: int
    messages: Tuple[DataMessage, ...]

    def wire_size(self) -> int:
        return 16 + sum(m.wire_size() for m in self.messages)
