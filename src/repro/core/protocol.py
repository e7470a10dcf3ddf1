"""Object-level round protocol (the exact simulator's node).

This implements, faithfully at the level of individual packets and
ports, the round semantics the paper's MATLAB simulations use:

- every round each process draws its push/pull views and gossips
  regardless of whether it holds the tracked message ``M``;
- push is modelled without the offer handshake (as in the paper's
  simulations — the full handshake lives in :mod:`repro.des`);
- a pull-request advertises a reply port, random and sealed by default,
  well-known in the no-random-ports ablation;
- each channel accepts a bounded, uniformly random subset of what
  arrived and the remainder is discarded at round end;
- pull-replies are sent and received within the same round (the paper
  assumes delivery latency below half a round).

The engine in :mod:`repro.sim.engine` drives the phases in lockstep:
``begin_round`` → ``send_phase`` → (adversary floods) →
``receive_phase`` → ``reply_phase`` → ``end_round``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.config import ProtocolConfig
from repro.core.message import (
    DataMessage,
    Digest,
    PullReply,
    PullRequest,
    PushData,
)
from repro.core.ports import RandomPortAllocator
from repro.crypto.encryption import SealedEnvelope, open_envelope
from repro.crypto.keys import KeyPair
from repro.net.address import (
    PORT_PULL_REPLY,
    PORT_PULL_REQUEST,
    PORT_PUSH_DATA,
    Address,
)
from repro.net.network import Network
from repro.net.packet import Packet
from repro.util import derive_rng
from repro.util.rng import SeedLike
from repro.core.views import disjoint_views


class GossipProcess:
    """One correct process in the exact round-based simulation.

    Every protocol kind runs through this class; its config decides the
    rest.  Drum splits the fan-out between push and pull, Push and Pull
    put all of it on one operation, and pull-replies await on random
    sealed ports unless the no-random-ports ablation sends them to the
    well-known reply port.  Only the shared-bounds ablation, whose push
    runs the offer handshake, needs a subclass
    (:class:`~repro.core.variants.DrumSharedBoundsProcess`).
    """

    def __init__(
        self,
        pid: int,
        config: ProtocolConfig,
        members: Sequence[int],
        network: Network,
        *,
        seed: SeedLike = None,
        has_message: bool = False,
    ):
        self.pid = pid
        self.config = config
        self.network = network
        self.rng = derive_rng(seed)
        self.keys = KeyPair(owner=pid)
        self.peer_keys: Dict[int, object] = {}

        #: Whether this process currently holds the tracked message M.
        self.has_message = has_message
        #: Snapshot of ``has_message`` at the top of the round; gossip
        #: content reflects the round-start state, matching the paper's
        #: synchronous analysis.
        self._had_message = has_message
        #: Round number at which M was delivered (0 for the source).
        self.delivery_round: Optional[int] = 0 if has_message else None
        #: How M arrived: "source", "push", or "pull".
        self.delivery_path: Optional[str] = "source" if has_message else None

        #: Optional ``(observer_pid, peer_pid)`` callback fired whenever
        #: an accepted inbound message reveals a live peer — the hook the
        #: exact engine's membership layer uses to feed failure
        #: detectors and disseminate awareness along *realized* gossip
        #: contacts.  None (the default) costs one predicate test per
        #: ingested message.
        self.on_contact = None

        self.round = 0
        self._ports = RandomPortAllocator(
            config.random_port_lifetime, seed=self.rng
        )
        self._view_push: List[int] = []
        self._view_pull: List[int] = []
        self._pending_reply_ports: List[int] = []

        # -- hot-path caches ------------------------------------------------
        # Everything below is immutable for the process's lifetime, and
        # every item was a measured per-packet or per-round allocation:
        # protocol flags resolved through enum properties, the two-state
        # gossip content (M is the only message the round simulator
        # tracks, so payloads/digests/replies take exactly two values),
        # and one Address object per (peer, well-known port).
        self._uses_push = config.kind.uses_push
        self._uses_pull = config.kind.uses_pull
        self._pub = self.keys.public
        self._push_bound = config.push_in_bound
        self._pull_bound = config.pull_in_bound
        self._tracked = DataMessage(msg_id=(0, 0), source=0, payload=b"M")
        self._digest_with = Digest.of([(0, 0)])
        self._digest_empty = Digest.of([])
        self._push_payload_with = PushData(
            sender=pid, messages=(self._tracked,)
        )
        self._push_payload_empty = PushData(sender=pid, messages=())
        self._pull_reply_with = PullReply(
            sender=pid, messages=(self._tracked,)
        )
        self._pull_reply_empty = PullReply(sender=pid, messages=())
        # The destination tables live on the Network and are shared by
        # every process: n Address objects per port for the whole group,
        # not n² (a measured init hotspot at paper scale).
        self._push_dst = network.wk_addrs(PORT_PUSH_DATA, members)
        self._pull_dst = network.wk_addrs(PORT_PULL_REQUEST, members)
        self._push_src = self._push_dst[pid]
        self._pull_src = self._pull_dst[pid]
        self._others = [m for m in members if m != pid]
        self._view_sizes = (config.view_push_size, config.view_pull_size)

        network.register_node(pid)
        if config.kind.uses_push:
            network.open_port_at(pid, PORT_PUSH_DATA)
        if config.kind.uses_pull:
            network.open_port_at(pid, PORT_PULL_REQUEST)
            if not config.uses_random_ports:
                network.open_port_at(pid, PORT_PULL_REPLY)

    # -- key distribution --------------------------------------------------

    def learn_keys(self, keys: Dict[int, object]) -> None:
        """Install the public keys of the other group members."""
        self.peer_keys = dict(keys)

    # -- dynamic membership --------------------------------------------------

    def set_gossip_candidates(self, candidates) -> None:
        """Replace the target pool views are drawn from.

        The dynamic-membership layer calls this when the process's local
        view changes (join/leave/expel applied, failure-detector
        suspicion or rehabilitation).  The well-known destination tables
        are keyed by pid and already cover the full id universe the
        engine constructed the process with, so only the candidate list
        and its derived caches change.  Static runs never call this —
        their hot path is untouched.
        """
        self._others = sorted(set(candidates) - {self.pid})

    # -- round phases --------------------------------------------------------

    def begin_round(self) -> None:
        """Snapshot state and draw this round's views from the kept
        candidate list."""
        self._had_message = self.has_message
        self._view_push, self._view_pull = disjoint_views(
            self._others, self._view_sizes, self.rng
        )

    def send_phase(self) -> None:
        """Send push data to view_push and pull-requests to view_pull."""
        self._send_push_phase()
        self._send_pull_phase()

    def _send_push_phase(self) -> None:
        view = self._view_push
        if not view:
            return
        # The payload takes one of two values; both are immutable and
        # prebuilt, so only the Packet is allocated per target.
        payload = (
            self._push_payload_with
            if self._had_message
            else self._push_payload_empty
        )
        send = self.network.send
        src = self._push_src
        dst = self._push_dst
        for target in view:
            send(Packet(dst=dst[target], payload=payload, sender=src))

    def _send_pull_phase(self) -> None:
        view = self._view_pull
        if not view:
            return
        digest = self._digest_with if self._had_message else self._digest_empty
        network = self.network
        send = network.send
        src = self._pull_src
        dst = self._pull_dst
        pid = self.pid
        if self.config.uses_random_ports:
            # Each request gets a fresh random reply port, sealed so only
            # its target learns where to answer.
            allocate = self._ports.allocate
            open_at = network.open_port_at
            pending = self._pending_reply_ports
            peer_key = self.peer_keys.get
            for target in view:
                port = allocate()
                open_at(pid, port)
                pending.append(port)
                key = peer_key(target)
                reply_port = (
                    SealedEnvelope(recipient=key, _plaintext=port)
                    if key is not None
                    else port
                )
                send(
                    Packet(
                        dst=dst[target],
                        payload=PullRequest(
                            sender=pid, digest=digest, reply_port=reply_port
                        ),
                        sender=src,
                    )
                )
        else:
            # Every reply lands on the well-known reply port, so one
            # immutable request serves all targets.
            request = PullRequest(
                sender=pid, digest=digest, reply_port=PORT_PULL_REPLY
            )
            for target in view:
                send(Packet(dst=dst[target], payload=request, sender=src))

    def receive_phase(self) -> None:
        """Drain bounded channels: ingest pushes, answer pull-requests."""
        if self._uses_push:
            for packet in self._drain(PORT_PUSH_DATA, self._push_bound):
                self._ingest_push(packet.payload)
        if self._uses_pull:
            for packet in self._drain(PORT_PULL_REQUEST, self._pull_bound):
                self._answer_pull_request(packet.payload)

    def reply_phase(self) -> None:
        """Read the pull-replies that arrived on this round's reply ports."""
        if not self._uses_pull:
            return
        if self.config.uses_random_ports:
            pid = self.pid
            bound = self._pull_bound
            get_channel = self.network.channel_at
            for port in self._pending_reply_ports:
                channel = get_channel(pid, port)
                if channel is None:
                    continue
                # Each reply port awaits a single reply, but its channel
                # is still bounded: if an adversary *does* learn the port
                # (e.g. the snooping ablation against cleartext ports),
                # its flood competes for these slots.  Under Drum proper
                # at most one reply arrives, so the bound never binds.
                for packet in channel.drain(bound):
                    self._ingest_pull_reply(packet.payload)
        else:
            for packet in self._drain(PORT_PULL_REPLY, self._pull_bound):
                self._ingest_pull_reply(packet.payload)
        self._pending_reply_ports = []

    def data_phase(self) -> None:
        """Hook for protocols whose data arrives after the reply phase.

        The base protocols deliver everything by the reply phase; the
        shared-bounds variant's push handshake delivers data here.
        """

    def end_round(self) -> None:
        """Expire random-port listeners and advance the local round."""
        expired = self._ports.tick_round()
        if expired:
            close = self.network.close_port_at
            pid = self.pid
            for port in expired:
                close(pid, port)
        self.round += 1

    # -- helpers -----------------------------------------------------------

    def _digest(self) -> Digest:
        return self._digest_with if self._had_message else self._digest_empty

    def _drain(self, port: int, bound: Optional[int]) -> List[Packet]:
        channel = self.network.channel_at(self.pid, port)
        return [] if channel is None else channel.drain(bound)

    def _ingest_push(self, payload: PushData) -> None:
        if not isinstance(payload, PushData):
            return  # junk on the push port: fails sanity checks
        if self.on_contact is not None:
            self.on_contact(self.pid, payload.sender)
        for message in payload.messages:
            self._deliver(message, via="push")

    def _unseal_port(self, value) -> Optional[int]:
        """Unwrap a (possibly sealed) advertised port; None when bogus.

        When the envelope's recipient is this process's own public-key
        *object* — the invariant under engine-distributed keys — the
        key check reduces to an identity test; anything else takes the
        full :func:`open_envelope` path.
        """
        if type(value) is SealedEnvelope:
            if value.recipient is self._pub:
                value = value._plaintext
            else:
                try:
                    value = open_envelope(self.keys.private, value)
                except Exception:
                    return None  # not sealed for us: drop
        return value if isinstance(value, int) else None

    def _answer_pull_request(self, payload: PullRequest) -> None:
        if not isinstance(payload, PullRequest):
            return
        reply_port = self._unseal_port(payload.reply_port)
        if reply_port is None:
            return
        if self.on_contact is not None:
            self.on_contact(self.pid, payload.sender)
        # A reply is sent even when we have nothing new: real processes
        # always have *other* traffic, and the reply itself loads the
        # requester's reply channel in the no-random-ports ablation.
        reply = (
            self._pull_reply_with
            if self._had_message and (0, 0) not in payload.digest
            else self._pull_reply_empty
        )
        self.network.send(
            Packet(
                dst=Address(payload.sender, reply_port),
                payload=reply,
                sender=self._pull_src,
            )
        )

    def _ingest_pull_reply(self, payload: PullReply) -> None:
        if not isinstance(payload, PullReply):
            return
        if self.on_contact is not None:
            self.on_contact(self.pid, payload.sender)
        for message in payload.messages:
            self._deliver(message, via="pull")

    def _deliver(self, message: DataMessage, via: str) -> None:
        if message.msg_id != (0, 0):
            return
        if not self.has_message:
            self.has_message = True
            self.delivery_round = self.round + 1
            self.delivery_path = via
