"""Section 9 shared-bounds ablation of Drum (Figure 12b).

:class:`DrumSharedBoundsProcess` puts one joint acceptance quota over
the *control* channels: push-offers, pull-requests, and push-replies.
This variant runs the full push-offer handshake, because that is where
sharing hurts: the fabricated flood on the well-known ports drains the
quota that valid push-replies — arriving on unattackable random ports —
needed, so an attacked process loses its ability to *send* via push
even though no attacker packet ever reaches a random port.

The other ablation, pull-replies on a well-known port (Figure 12a),
needs no class of its own: :class:`~repro.core.protocol.GossipProcess`
reads it from the config.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.config import ProtocolConfig
from repro.core.message import PushOffer, PushReply
from repro.core.protocol import GossipProcess
from repro.crypto.encryption import seal
from repro.net.address import (
    PORT_PULL_REQUEST,
    PORT_PUSH_DATA,
    PORT_PUSH_OFFER,
    Address,
)
from repro.net.network import Network
from repro.net.packet import Packet
from repro.util.rng import SeedLike


class DrumSharedBoundsProcess(GossipProcess):
    """Drum with one joint control-message quota (Fig 12b).

    Push runs the full offer handshake within a round:

    1. send ``PushOffer`` (with a sealed random reply port) to each push
       target; the offer lands on the target's well-known offer port;
    2. the target accepts offers and pull-requests from the shared
       quota, answering accepted offers with a ``PushReply`` (digest +
       sealed random data port);
    3. the offerer reads push-replies from whatever quota the flood has
       left, and sends data the digest was missing to the data port;
    4. data ports are drained in the engine's data phase.
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
        super().__init__(
            pid, config, members, network, seed=seed, has_message=has_message
        )
        # Push uses the offer handshake: listen for offers, not raw data.
        network.close_port_at(pid, PORT_PUSH_DATA)
        network.open_port_at(pid, PORT_PUSH_OFFER)
        self._offer_reply_ports: List[int] = []
        self._data_ports: List[int] = []
        self._quota_left = 0
        # Offer-port destination/source addresses, shared network-wide
        # like the base class's push/pull tables.
        self._offer_dst = network.wk_addrs(PORT_PUSH_OFFER, members)
        self._offer_src = self._offer_dst[pid]

    # -- send -----------------------------------------------------------------

    def _send_push_phase(self) -> None:
        view = self._view_push
        if not view:
            return
        pid = self.pid
        network = self.network
        send = network.send
        src = self._offer_src
        dst = self._offer_dst
        peer_keys = self.peer_keys
        for target in view:
            port = self._ports.allocate()
            network.open_port_at(pid, port)
            self._offer_reply_ports.append(port)
            target_key = peer_keys.get(target)
            sealed = seal(target_key, port) if target_key is not None else port
            send(
                Packet(
                    dst=dst[target],
                    payload=PushOffer(sender=pid, reply_port=sealed),
                    sender=src,
                )
            )

    # -- receive ----------------------------------------------------------------

    def receive_phase(self) -> None:
        """Drain offers and pull-requests from the joint quota."""
        offer_channel = self.network.channel_at(self.pid, PORT_PUSH_OFFER)
        pull_channel = self.network.channel_at(self.pid, PORT_PULL_REQUEST)
        offers_total = len(offer_channel)
        pulls_total = len(pull_channel)
        # Push-replies arrive interleaved with the flood over the course
        # of a real round, so they compete for the quota on equal terms.
        # One reply per offer sent is the (tight) upper bound on how many
        # will arrive; the quota is split uniformly over all control
        # arrivals by iterated hypergeometric draws.
        replies_expected = len(self._view_push)
        total = offers_total + pulls_total + replies_expected
        quota = self.config.shared_in_bound
        if total <= quota:
            offer_slots, pull_slots = offers_total, pulls_total
            self._quota_left = replies_expected
        else:
            offer_slots = int(
                self.rng.hypergeometric(
                    offers_total, pulls_total + replies_expected, quota
                )
            )
            remaining = quota - offer_slots
            if remaining > 0 and pulls_total:
                pull_slots = int(
                    self.rng.hypergeometric(
                        pulls_total, replies_expected, remaining
                    )
                )
            else:
                pull_slots = 0
            self._quota_left = remaining - pull_slots
        for packet in offer_channel.drain(offer_slots):
            self._answer_push_offer(packet.payload)
        for packet in pull_channel.drain(pull_slots):
            self._answer_pull_request(packet.payload)

    def _answer_push_offer(self, offer: PushOffer) -> None:
        if not isinstance(offer, PushOffer):
            return
        reply_port = self._unseal_port(offer.reply_port)
        if reply_port is None:
            return
        data_port = self._ports.allocate()
        self.network.open_port_at(self.pid, data_port)
        self._data_ports.append(data_port)
        offerer_key = self.peer_keys.get(offer.sender)
        sealed = (
            seal(offerer_key, data_port) if offerer_key is not None else data_port
        )
        self.network.send(
            Packet(
                dst=Address(offer.sender, reply_port),
                payload=PushReply(
                    sender=self.pid, digest=self._digest(), data_port=sealed
                ),
                sender=self._offer_src,
            )
        )

    # -- replies --------------------------------------------------------------

    def reply_phase(self) -> None:
        """Read push-replies from the leftover quota, then pull-replies."""
        arrivals = []
        channel_at = self.network.channel_at
        pid = self.pid
        for port in self._offer_reply_ports:
            channel = channel_at(pid, port)
            if channel is not None:
                arrivals.extend(channel.drain(None))
        self._offer_reply_ports = []
        if arrivals and self._quota_left > 0:
            order = self.rng.permutation(len(arrivals))
            for i in order[: self._quota_left]:
                self._handle_push_reply(arrivals[i].payload)
        super().reply_phase()

    def _handle_push_reply(self, reply: PushReply) -> None:
        if not isinstance(reply, PushReply):
            return
        data_port = self._unseal_port(reply.data_port)
        if data_port is None:
            return
        if self._had_message and (0, 0) not in reply.digest:
            self.network.send(
                Packet(
                    dst=Address(reply.sender, data_port),
                    payload=self._push_payload_with,
                    sender=self._offer_src,
                )
            )

    # -- data -------------------------------------------------------------------

    def data_phase(self) -> None:
        """Ingest push data that arrived on this round's data ports."""
        channel_at = self.network.channel_at
        pid = self.pid
        for port in self._data_ports:
            channel = channel_at(pid, port)
            if channel is not None:
                for packet in channel.drain(None):
                    self._ingest_push(packet.payload)
        self._data_ports = []
