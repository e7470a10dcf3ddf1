"""Per-port, per-round bounded inboxes.

Drum's central defensive mechanism is *bounded random acceptance*: a
process reads at most ``bound`` messages from each port per round, chosen
uniformly at random among everything that arrived, and discards the rest
when the round ends.  Because rounds are locally timed and randomly
jittered, an attacker cannot aim traffic at the start of a round, so a
fabricated message is as likely to be discarded as a valid one — which is
exactly what makes the acceptance probability of a valid message
``min(1, bound / arrivals)``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.net.packet import Packet
from repro.util import check_non_negative, derive_rng
from repro.util.rng import SeedLike


class BoundedChannel:
    """One port's inbox for the current round.

    ``persistent=True`` builds the *ablated* channel the paper warns
    against: unread messages survive the round boundary instead of being
    discarded.  Under a flood, stale fabricated backlog then accumulates
    without bound and the acceptance probability of fresh valid traffic
    collapses toward zero — the behaviour
    ``tests/test_net_channel.py::TestRoundEndDiscardAblation`` verifies.

    The RNG behind the random acceptance subset is built lazily from the
    stored seed: a channel only draws randomness when more arrives than
    its bound accepts, and the vast majority of channels (per-round
    random reply ports awaiting one packet) never overload.  Deferring
    the ``Generator`` construction to first use keeps channel setup off
    the exact engine's hot path without changing a single drawn value.
    """

    __slots__ = (
        "port", "persistent", "naive", "_arrivals", "_fabricated_arrivals",
        "_seed", "_rng_obj", "_tracer", "_node",
    )

    def __init__(
        self,
        port: int,
        *,
        seed: SeedLike = None,
        persistent: bool = False,
        naive: bool = False,
        tracer=None,
        node: Optional[int] = None,
    ):
        self.port = port
        self.persistent = persistent
        #: Observability: when a repro.obs Tracer is attached (by
        #: Network.open_port_at), ``drain`` emits accepted/dropped
        #: events carrying ``node`` as the receiver id.  The tracer
        #: draws no randomness, so traced drains accept identical
        #: subsets.  The naive reference mode is not instrumented.
        self._tracer = tracer
        self._node = node
        #: Reference (unoptimised) mode the tests hold the bulk path
        #: against: the RNG is built eagerly, fabricated packets are
        #: stored as objects, and ``drain`` picks its subset directly
        #: over the arrival objects.
        #: Statistically identical to the fast path, but it consumes a
        #: different RNG stream — never use it for golden-traced runs.
        self.naive = naive
        self._arrivals: List[Packet] = []
        self._fabricated_arrivals = 0
        self._seed = seed
        self._rng_obj = None
        if naive:
            self._rng_obj = derive_rng(seed)
            self._seed = None

    @property
    def _rng(self):
        rng = self._rng_obj
        if rng is None:
            rng = self._rng_obj = derive_rng(self._seed)
            self._seed = None
        return rng

    def __len__(self) -> int:
        return len(self._arrivals) + self._fabricated_arrivals

    @property
    def valid_arrivals(self) -> int:
        """Number of non-fabricated packets waiting."""
        if self.naive:
            return sum(1 for p in self._arrivals if not p.fabricated)
        return len(self._arrivals)

    @property
    def fabricated_arrivals(self) -> int:
        """Number of fabricated packets waiting (attack traffic)."""
        if self.naive:
            return sum(1 for p in self._arrivals if p.fabricated)
        return self._fabricated_arrivals

    def deliver(self, packet: Packet) -> None:
        """Enqueue one arriving packet."""
        if packet.fabricated and not self.naive:
            # Fabricated packets carry no protocol-relevant payload; we
            # count them instead of storing objects, which keeps large
            # attacks (x in the thousands) cheap to simulate.
            self._fabricated_arrivals += 1
        else:
            self._arrivals.append(packet)

    def inject_fabricated(self, count: int) -> None:
        """Enqueue ``count`` fabricated packets in one call."""
        check_non_negative("count", count)
        self._fabricated_arrivals += count

    def drain(self, bound: Optional[int]) -> List[Packet]:
        """Read up to ``bound`` packets; the remainder is discarded
        (or, on a persistent channel, left queued for later rounds).

        Returns the *valid* packets among the accepted subset (fabricated
        ones are read too — consuming acceptance slots — but carry nothing
        for the protocol).  ``bound=None`` means unbounded.
        """
        if self.naive:
            return self._drain_naive(bound)
        total = len(self._arrivals) + self._fabricated_arrivals
        if total == 0:
            # Nothing arrived: both queues are already empty, so there
            # is nothing to clear — the common case for per-round random
            # reply ports, which usually see at most one packet.
            return []
        tr = self._tracer
        if bound is None or total <= bound:
            # Everything fits: hand the arrival list itself to the
            # caller (both modes clear the queues after a full read, so
            # no copy is needed).
            accepted = self._arrivals
            fab = self._fabricated_arrivals
            self._arrivals = []
            self._fabricated_arrivals = 0
            if tr is not None:
                tr.accepted(
                    self._node, self.port, valid=len(accepted), fabricated=fab
                )
            return accepted
        # Choose a uniformly random bound-sized subset of all arrivals.
        # The number of *valid* packets in that subset is hypergeometric;
        # then pick which valid packets uniformly.
        valid = len(self._arrivals)
        accepted_valid = int(
            self._rng.hypergeometric(valid, total - valid, bound)
        ) if valid else 0
        if accepted_valid == 0:
            result: List[Packet] = []
        elif accepted_valid == valid:
            result = list(self._arrivals)
        else:
            idx = self._rng.choice(valid, size=accepted_valid, replace=False)
            result = [self._arrivals[i] for i in sorted(idx)]
        if tr is not None:
            fab = self._fabricated_arrivals
            tr.accepted(
                self._node, self.port,
                valid=accepted_valid, fabricated=bound - accepted_valid,
            )
            if not self.persistent:
                # Overflow discard: "attack" when flood traffic shared
                # the channel this round, plain "bound" otherwise.
                tr.dropped(
                    "attack" if fab > 0 else "bound",
                    node=self._node, port=self.port,
                    count=total - bound,
                    valid=valid - accepted_valid,
                    fabricated=fab - (bound - accepted_valid),
                )
        if self.persistent:
            # Ablation: the unread remainder stays queued.
            accepted_fabricated = bound - accepted_valid
            kept = set(id(p) for p in result)
            self._arrivals = [p for p in self._arrivals if id(p) not in kept]
            self._fabricated_arrivals -= accepted_fabricated
        else:
            self._reset()
        return result

    def _drain_naive(self, bound: Optional[int]) -> List[Packet]:
        """The textbook acceptance rule, applied to stored objects.

        Chooses a uniformly random ``bound``-sized subset of *all*
        arrival objects (fabricated ones included) and returns the valid
        packets in it — the definition the fast path's hypergeometric
        split is derived from.  Kept as the tests' reference.
        """
        arrivals = self._arrivals
        total = len(arrivals)
        if total == 0:
            return []
        if bound is None or total <= bound:
            accepted = [p for p in arrivals if not p.fabricated]
        else:
            idx = self._rng.choice(total, size=bound, replace=False)
            accepted = [
                arrivals[i] for i in sorted(idx) if not arrivals[i].fabricated
            ]
        self._arrivals = []
        return accepted

    def end_round(self) -> int:
        """Discard everything unread; returns how many were dropped.

        On a persistent (ablated) channel this is a no-op returning 0 —
        the backlog survives, which is exactly the vulnerability.
        """
        if self.persistent:
            return 0
        dropped = len(self._arrivals) + self._fabricated_arrivals
        if dropped:
            self._reset()
        return dropped

    def _reset(self) -> None:
        self._arrivals = []
        self._fabricated_arrivals = 0
