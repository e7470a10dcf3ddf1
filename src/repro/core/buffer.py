"""The per-process data-message buffer.

Messages live in the buffer for :attr:`ProtocolConfig.purge_rounds`
local rounds and are then discarded.  A message's hop counter (the
measurement device of Section 8.1) is the value it was inserted with
plus the local rounds it has been held; the buffer stores the message
as inserted and materialises the counter only on the copies that leave
it, so a round tick costs what expires, not what is buffered.
Selection for gossip is uniformly random over the messages the peer is
missing, truncated to the per-partner send budget.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.message import DataMessage, Digest
from repro.util import check_positive, derive_rng
from repro.util.rng import SeedLike

MessageId = Tuple[int, int]


class MessageBuffer:
    """Bounded-age store of data messages."""

    def __init__(self, purge_rounds: int = 10, *, seed: SeedLike = None):
        check_positive("purge_rounds", purge_rounds)
        self.purge_rounds = purge_rounds
        #: Messages as inserted, and the local round each was inserted in.
        self._messages: Dict[MessageId, DataMessage] = {}
        self._born: Dict[MessageId, int] = {}
        self._round = 0
        #: Expiry round -> ids to purge then, in insertion order.
        self._expiry: Dict[int, List[MessageId]] = {}
        self._rng = derive_rng(seed)
        self.purged_total = 0
        # The digest is requested once per gossip partner per round but
        # contents change only on add/purge; cache it between mutations.
        self._digest_cache: Optional[Digest] = None

    def __len__(self) -> int:
        return len(self._messages)

    def __contains__(self, msg_id: MessageId) -> bool:
        return msg_id in self._messages

    def _current(self, msg_id: MessageId) -> DataMessage:
        """``msg_id``'s message with its hop counter as of this round."""
        held = self._round - self._born[msg_id]
        message = self._messages[msg_id]
        return message.aged(held) if held else message

    def get(self, msg_id: MessageId) -> Optional[DataMessage]:
        """The buffered message with ``msg_id``, if present."""
        return self._current(msg_id) if msg_id in self._messages else None

    def add(self, message: DataMessage, *, ttl: Optional[int] = None) -> bool:
        """Store a message; returns False when it was already buffered.

        ``ttl`` overrides the buffer-wide ``purge_rounds`` for this one
        message — used by experiments that track a single long-lived
        message through normally purging buffers.
        """
        mid = message.msg_id
        if mid in self._messages:
            return False
        if ttl is not None and ttl < 1:
            raise ValueError(f"ttl must be >= 1, got {ttl}")
        self._messages[mid] = message
        self._born[mid] = self._round
        lifetime = self.purge_rounds if ttl is None else ttl
        self._expiry.setdefault(self._round + lifetime, []).append(mid)
        self._digest_cache = None
        return True

    def digest(self) -> Digest:
        """Digest of everything currently buffered."""
        if self._digest_cache is None:
            self._digest_cache = Digest.of(self._messages.keys())
        return self._digest_cache

    def messages_missing_from(
        self, digest: Digest, limit: Optional[int] = None
    ) -> List[DataMessage]:
        """A random subset of buffered messages absent from ``digest``.

        When more than ``limit`` qualify, a uniformly random
        ``limit``-sized subset is returned (Drum "chooses a random subset"
        and sends "at most `max_sends_per_partner` randomly chosen" new
        messages per partner).
        """
        have = digest.message_ids
        if self._messages.keys() <= have:
            return []
        missing = [mid for mid in self._messages if mid not in have]
        if limit is not None and len(missing) > limit:
            idx = self._rng.choice(len(missing), size=limit, replace=False)
            missing = [missing[i] for i in idx]
        return [self._current(mid) for mid in missing]

    def tick_round(self) -> List[MessageId]:
        """Age all messages one round; purge and return the expired ids."""
        self._round += 1
        expired = self._expiry.pop(self._round, [])
        for mid in expired:
            del self._messages[mid]
            del self._born[mid]
        self.purged_total += len(expired)
        if expired:
            self._digest_cache = None
        return expired

    def all_messages(self) -> List[DataMessage]:
        """Every buffered message (insertion order)."""
        return [self._current(mid) for mid in self._messages]

    def age_of(self, msg_id: MessageId) -> Optional[int]:
        """Rounds since ``msg_id`` entered the buffer, if buffered."""
        born = self._born.get(msg_id)
        return None if born is None else self._round - born
