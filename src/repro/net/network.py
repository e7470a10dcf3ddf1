"""The round-based simulated network fabric.

A :class:`Network` owns, for every node, the set of currently open ports
and a :class:`~repro.net.channel.BoundedChannel` per open port.  Sending
applies link loss; packets addressed to closed ports (e.g. an attacker
guessing at a random port that is no longer live) vanish silently, as
they would on a real host.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.net.address import Address
from repro.net.channel import BoundedChannel
from repro.net.link import LossModel
from repro.net.packet import Packet
from repro.util import SeedSequenceFactory
from repro.util.rng import SeedLike


class Network:
    """Lossy datagram fabric for the object-level round simulator."""

    def __init__(
        self,
        loss: Optional[LossModel] = None,
        *,
        seed: SeedLike = None,
        naive: bool = False,
        tracer=None,
    ):
        #: Reference (unoptimised) mode the tests hold the bulk path
        #: against: floods materialise one :class:`Packet` per fabricated
        #: message (with a per-packet loss draw) and channels run
        #: eagerly-seeded, object-level bounded acceptance.  Statistically equivalent to
        #: the fast path but on a different RNG stream — test use only,
        #: never for golden-traced runs.
        self.naive = naive
        self._seeds = SeedSequenceFactory(seed)
        self.loss = loss if loss is not None else LossModel(0.0, seed=self._seeds.next_seed())
        # Bound once: ``delivered`` runs for every sent packet, and the
        # bound method stays valid across ``LossModel.reseed`` (which
        # swaps the generator inside the model, not the model itself).
        self._delivered = self.loss.delivered
        self._channels: Dict[int, Dict[int, BoundedChannel]] = {}
        # Shared per-port address tables: every process sending to the
        # same well-known port uses the same {node: Address} dict, so a
        # group of n processes builds n Address objects per port instead
        # of n² (one table per sender).
        self._wk_addrs: Dict[int, Dict[int, Address]] = {}
        self.sent_packets = 0
        self.lost_packets = 0
        self.dead_lettered = 0
        self.blocked_packets = 0
        self.channels_opened = 0
        # Fault-injection drop predicate ``(src_node, dst_node) -> bool``
        # (crash / partition / stall windows), swapped per round by the
        # simulator; None — the only value faultless runs ever see —
        # costs one falsy check on the send path.
        self._block = None
        # Passive wiretaps (the paper's snooping adversary): each is
        # called with every packet in transit.  What a tap can *learn*
        # is limited by what the payload exposes — sealed envelopes
        # keep random ports opaque even to a tap on every link.
        self._snoopers = []
        # Observability: a repro.obs Tracer, or None (the only value
        # untraced runs ever see — one falsy check per send/drain).
        # The tracer draws no randomness, so attaching one cannot
        # perturb a seeded run.
        self._tracer = tracer

    def add_snooper(self, snooper) -> None:
        """Register a passive wiretap called with every sent packet."""
        self._snoopers.append(snooper)

    def set_block(self, block) -> None:
        """Install (or clear, with None) the fault drop predicate.

        ``block(src_node, dst_node)`` returning True drops the packet
        before the loss draw — a crashed machine or a partition cut is
        not a lossy link, so blocked packets are counted separately and
        consume no randomness.  Packets with no sender (attacker floods)
        present ``src_node = -1``, outside the group id space.
        """
        self._block = block

    def use_loss_model(self, loss) -> None:
        """Swap the link-loss model (e.g. for Gilbert–Elliott bursts).

        The replacement must provide the :class:`LossModel` sampling
        surface; it arrives pre-seeded by the caller.
        """
        self.loss = loss
        self._delivered = loss.delivered

    # -- port management ------------------------------------------------

    def register_node(self, node: int) -> None:
        """Create the port table for ``node`` (idempotent)."""
        self._channels.setdefault(node, {})

    def wk_addrs(self, port: int, members) -> Dict[int, Address]:
        """The shared ``{node: Address(node, port)}`` table for ``port``.

        Built once per (network, port) and handed out to every process,
        read-only by convention; senders index it instead of holding a
        private per-process copy.
        """
        table = self._wk_addrs.get(port)
        if table is None:
            table = self._wk_addrs[port] = {
                m: Address(m, port) for m in members
            }
        elif len(table) != len(members):
            for m in members:
                if m not in table:
                    table[m] = Address(m, port)
        return table

    def open_port(self, addr: Address) -> BoundedChannel:
        """Open ``addr`` for reception and return its channel."""
        return self.open_port_at(addr.node, addr.port)

    def open_port_at(self, node: int, port: int) -> BoundedChannel:
        """Open ``(node, port)`` for reception and return its channel.

        The channel's acceptance seed is handed out as a lazy recipe:
        the seed *position* is consumed here (identical to an eager
        spawn), but no SeedSequence or Generator is built unless the
        channel ever overloads and must draw its random subset.  The
        node/port-keyed form is the hot one — per-round random reply
        ports open without constructing a throwaway :class:`Address`.
        """
        ports = self._channels.setdefault(node, {})
        channel = ports.get(port)
        if channel is None:
            self.channels_opened += 1
            channel = BoundedChannel(
                port, seed=self._seeds.next_lazy(), naive=self.naive,
                tracer=self._tracer, node=node,
            )
            ports[port] = channel
        return channel

    def close_port(self, addr: Address) -> None:
        """Close ``addr``; anything queued there is dropped."""
        self.close_port_at(addr.node, addr.port)

    def close_port_at(self, node: int, port: int) -> None:
        """Close ``(node, port)``; anything queued there is dropped."""
        ports = self._channels.get(node)
        if ports is not None:
            ports.pop(port, None)

    def is_open(self, addr: Address) -> bool:
        """True when ``addr`` currently accepts packets."""
        return addr.port in self._channels.get(addr.node, {})

    def channel(self, addr: Address) -> BoundedChannel:
        """Return the channel behind an open port."""
        try:
            return self._channels[addr.node][addr.port]
        except KeyError:
            raise KeyError(f"port {addr} is not open") from None

    def get_channel(self, addr: Address) -> Optional[BoundedChannel]:
        """The channel behind ``addr``, or None when the port is closed."""
        return self.channel_at(addr.node, addr.port)

    def channel_at(self, node: int, port: int) -> Optional[BoundedChannel]:
        """The channel behind ``(node, port)``, or None when closed.

        One dict probe replaces the ``is_open`` + ``channel`` pair on
        the receive hot path, with no :class:`Address` construction.
        """
        ports = self._channels.get(node)
        return None if ports is None else ports.get(port)

    def open_ports(self, node: int) -> List[int]:
        """All ports currently open on ``node``."""
        return sorted(self._channels.get(node, {}))

    # -- traffic ---------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Transmit one packet; returns True when it was enqueued.

        ``sent_packets`` *is* the packet-allocation count (fabricated
        flood traffic is counted here too but never materialised — see
        :meth:`flood`), so the hot path carries no extra bookkeeping.
        """
        self.sent_packets += 1
        if self._snoopers:
            for snooper in self._snoopers:
                snooper(packet)
        dst = packet.dst
        tr = self._tracer
        if tr is not None:
            sender = packet.sender
            tr.gossip_sent(
                -1 if sender is None else sender.node, dst.node, dst.port
            )
        if self._block is not None:
            sender = packet.sender
            if self._block(-1 if sender is None else sender.node, dst.node):
                self.blocked_packets += 1
                if tr is not None:
                    tr.dropped("partition", node=dst.node, port=dst.port)
                return False
        if not self._delivered():
            self.lost_packets += 1
            if tr is not None:
                tr.dropped("loss", node=dst.node, port=dst.port)
            return False
        ports = self._channels.get(dst.node)
        if ports is None:
            self.dead_lettered += 1
            if tr is not None:
                tr.dropped("closed", node=dst.node, port=dst.port)
            return False
        channel = ports.get(dst.port)
        if channel is None:
            self.dead_lettered += 1
            if tr is not None:
                tr.dropped("closed", node=dst.node, port=dst.port)
            return False
        channel.deliver(packet)
        return True

    def flood(self, dst: Address, count: int) -> int:
        """Inject ``count`` fabricated packets at ``dst`` (attack traffic).

        Loss applies to attack traffic like any other; returns how many
        packets actually reached the channel.  The ``count`` fabricated
        packets are never materialised as objects — loss thins them with
        one binomial draw and the survivors land as a counter bump in
        the channel (see :meth:`BoundedChannel.inject_fabricated`), so a
        paper-strength flood (x=128 per victim per round) costs O(1)
        per port instead of O(x) allocations.
        """
        tr = self._tracer
        if tr is not None:
            tr.flood_sent(dst.node, dst.port, count)
        if self._block is not None and self._block(-1, dst.node):
            # The victim's machine is down (floods originate outside the
            # group, so a partition never blocks them): the whole batch
            # is wasted without a loss draw.
            self.sent_packets += count
            self.blocked_packets += count
            if tr is not None:
                tr.dropped(
                    "partition", node=dst.node, port=dst.port,
                    count=count, fabricated=count,
                )
            return 0
        if self.naive:
            # Reference implementation: fabricate and route ``count``
            # real Packet objects, one loss draw each — the per-packet
            # cost the bulk path eliminates.
            delivered = 0
            for _ in range(count):
                self.sent_packets += 1
                if not self._delivered():
                    self.lost_packets += 1
                    continue
                ports = self._channels.get(dst.node)
                if ports is None or dst.port not in ports:
                    self.dead_lettered += 1
                    continue
                ports[dst.port].deliver(
                    Packet(dst=dst, payload=None, fabricated=True)
                )
                delivered += 1
            return delivered
        self.sent_packets += count
        survivors = self.loss.surviving_count(count)
        self.lost_packets += count - survivors
        if tr is not None and count > survivors:
            tr.dropped(
                "loss", node=dst.node, port=dst.port,
                count=count - survivors, fabricated=count - survivors,
            )
        ports = self._channels.get(dst.node)
        if ports is None or dst.port not in ports:
            self.dead_lettered += survivors
            if tr is not None and survivors:
                tr.dropped(
                    "closed", node=dst.node, port=dst.port,
                    count=survivors, fabricated=survivors,
                )
            return 0
        ports[dst.port].inject_fabricated(survivors)
        return survivors

    def end_round(self, nodes: Optional[Iterable[int]] = None) -> int:
        """Discard unread backlog on every channel; returns total dropped."""
        dropped = 0
        targets = self._channels if nodes is None else {
            n: self._channels.get(n, {}) for n in nodes
        }
        tr = self._tracer
        if tr is None:
            for ports in targets.values():
                for channel in ports.values():
                    dropped += channel.end_round()
            return dropped
        for node, ports in targets.items():
            for port, channel in ports.items():
                count = channel.end_round()
                if count:
                    tr.dropped("round_end", node=node, port=port, count=count)
                dropped += count
        return dropped
