"""The full gossip node (Drum / Push / Pull and the Section 9 variants).

This is the protocol as Section 4 describes it and Section 8 measures
it — not the simplified round-simulation model:

- rounds are locally timed with random jitter and *not* synchronised
  across nodes;
- push uses the three-step offer / reply / data handshake, so data is
  only transmitted when the target's digest says it is missing;
- pull-requests carry digests and sealed random reply ports;
- every channel has a per-round acceptance quota
  (:class:`~repro.core.bounds.ResourceBounds`) consumed *before* any
  validation, so fabricated traffic burns quota exactly as it does in a
  real implementation — and with the shared-bounds variant, burns the
  quota that valid push-replies needed;
- data messages are purged from the buffer after ``purge_rounds`` local
  rounds, at most ``max_sends_per_partner`` new messages go to one
  partner per round, and every buffered message's hop counter advances
  once per local round (the Section 8.1 latency-in-rounds device).

The node is written against :class:`~repro.des.environment.Environment`,
so the same class runs deterministically on the discrete-event engine
and in wall-clock time on the asyncio runtime (:mod:`repro.aio`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.core.bounds import ResourceBounds
from repro.core.buffer import MessageBuffer
from repro.core.config import ProtocolConfig, ProtocolKind
from repro.core.message import (
    DataMessage,
    MessageIdFactory,
    PullReply,
    PullRequest,
    PushData,
    PushOffer,
    PushReply,
    _default_ids,
)
from repro.core.ports import RandomPortAllocator
from repro.core.views import select_disjoint_views
from repro.crypto.encryption import SealedEnvelope, open_envelope, seal
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.signatures import SignatureRegistry, sign, verify
from repro.des.environment import Environment
from repro.net.address import (
    PORT_PULL_REPLY,
    PORT_PULL_REQUEST,
    PORT_PUSH_OFFER,
    Address,
)
from repro.util import derive_rng
from repro.util.rng import SeedLike

DeliverCallback = Callable[[int, DataMessage, float], None]

#: Default per-round quota for *data* messages arriving on random ports,
#: split evenly between push data and pull replies.  Generous — data
#: ports are unattackable under random ports, and the paper leaves the
#: data capability well above the control bounds.
DEFAULT_DATA_BOUND = 512


class GossipNode:
    """One live protocol participant."""

    def __init__(
        self,
        env: Environment,
        pid: int,
        config: ProtocolConfig,
        members: Sequence[int],
        *,
        seed: SeedLike = None,
        on_deliver: Optional[DeliverCallback] = None,
        data_bound: int = DEFAULT_DATA_BOUND,
        ttl_policy=None,
        registry: Optional[SignatureRegistry] = None,
        id_factory: Optional[MessageIdFactory] = None,
    ):
        """``ttl_policy(message) -> Optional[int]`` may override the
        buffer lifetime of individual messages (e.g. a tracked message
        in a propagation experiment outliving normal purging).

        ``registry`` scopes signature bindings to this cluster/run; all
        nodes of one group must share it for cross-node verification to
        succeed.  ``None`` falls back to the bounded module default.

        ``id_factory`` scopes message serials to this cluster/run so
        seeded runs mint identical ids; ``None`` falls back to the
        process-global default factory.
        """
        self.env = env
        self.pid = pid
        self.config = config
        self.members = list(members)
        self.id_factory = id_factory if id_factory is not None else _default_ids
        self.rng = derive_rng(seed)
        self.keys = KeyPair(owner=pid)
        self.peer_keys: Dict[int, PublicKey] = {}
        self.on_deliver = on_deliver
        self.ttl_policy = ttl_policy
        self.registry = registry

        self.buffer = MessageBuffer(config.purge_rounds, seed=self.rng)
        self.ports = RandomPortAllocator(
            config.random_port_lifetime, seed=self.rng
        )
        self.bounds = self._build_bounds(data_bound)
        # The well-known endpoints every send names, built once.
        self._offer_addr = Address(pid, PORT_PUSH_OFFER)
        self._request_addr = Address(pid, PORT_PULL_REQUEST)
        self._reply_addr = Address(pid, PORT_PULL_REPLY)

        self.round_no = 0
        self.running = False
        self._round_handle: Optional[object] = None
        #: Ids of every message ever delivered to the application.  The
        #: buffer forgets purged messages, but the application must not
        #: see a message twice when a slower peer re-gossips an old one.
        self._seen = set()

        # Instrumentation.
        self.stats = {
            "offers_sent": 0,
            "offers_answered": 0,
            "pull_requests_sent": 0,
            "pull_requests_answered": 0,
            "data_messages_sent": 0,
            "data_messages_delivered": 0,
            "invalid_dropped": 0,
            "bytes_sent": 0,
        }

    def _send(self, src: Address, dst: Address, payload) -> None:
        """Send one datagram, accounting its wire size."""
        size = getattr(payload, "wire_size", None)
        self.stats["bytes_sent"] += int(size()) if callable(size) else 64
        self.env.send(src, dst, payload)

    # -- configuration ---------------------------------------------------------

    def _build_bounds(self, data_bound: int) -> ResourceBounds:
        cfg = self.config
        bounds = {
            "push_offer": cfg.view_push_size,
            "pull_request": cfg.view_pull_size,
            "push_reply": cfg.view_push_size,
            "push_data": data_bound // 2,
            "pull_data": data_bound // 2,
        }
        if cfg.kind is ProtocolKind.DRUM_SHARED_BOUNDS:
            return ResourceBounds(
                bounds,
                shared_channels=("push_offer", "pull_request", "push_reply"),
                shared_bound=cfg.shared_in_bound,
            )
        return ResourceBounds(bounds)

    def learn_keys(self, keys: Dict[int, PublicKey]) -> None:
        """Adopt the group's key directory — shared, not copied: one
        directory serves every node, where per-node copies would be
        O(n²) dict entries.  No node writes it."""
        self.peer_keys = keys

    @property
    def uses_push(self) -> bool:
        return self.config.kind.uses_push

    @property
    def uses_pull(self) -> bool:
        return self.config.kind.uses_pull

    # -- lifecycle ---------------------------------------------------------------

    def start(self, initial_delay_ms: Optional[float] = None) -> None:
        """Bind well-known ports and begin the round loop.

        Rounds start at a uniformly random phase so nodes are
        unsynchronised, as in the measured implementation.
        """
        if self.running:
            raise RuntimeError(f"node {self.pid} is already running")
        self.running = True
        if self.uses_push:
            self.env.bind(self._offer_addr, self._on_push_offer)
        if self.uses_pull:
            self.env.bind(self._request_addr, self._on_pull_request)
            if not self.config.uses_random_ports:
                self.env.bind(self._reply_addr, self._on_pull_data)
        if initial_delay_ms is None:
            initial_delay_ms = float(
                self.rng.uniform(0, self.config.round_duration_ms)
            )
        self._round_handle = self.env.schedule(initial_delay_ms, self._round)

    def stop(self) -> None:
        """Halt the round loop and release every port."""
        self.running = False
        if self._round_handle is not None:
            self._round_handle.cancel()
            self._round_handle = None
        if self.uses_push:
            self.env.unbind(self._offer_addr)
        if self.uses_pull:
            self.env.unbind(self._request_addr)
            if not self.config.uses_random_ports:
                self.env.unbind(self._reply_addr)
        for port in list(self.ports.open_ports):
            self.ports.release(port)
            self.env.unbind(Address(self.pid, port))

    # -- application API ------------------------------------------------------------

    def multicast(self, payload: object) -> DataMessage:
        """Create, sign, buffer, and locally deliver a new message.

        The hop counter starts at 1 in the buffer (the source logs 0 and
        "immediately increases the round counter to 1", Section 8.1).
        """
        message = DataMessage(
            msg_id=self.id_factory.fresh(self.pid),
            source=self.pid,
            payload=payload,
            round_counter=1,
        )
        signature = sign(
            self.keys.private,
            message.signed_body(),
            digest=message.body_digest(),
            registry=self.registry,
        )
        message = DataMessage(
            msg_id=message.msg_id,
            source=message.source,
            payload=message.payload,
            round_counter=1,
            signature=signature,
            _body_digest=message.body_digest(),
        )
        self._seen.add(message.msg_id)
        self.buffer.add(message, ttl=self._ttl_for(message))
        self.stats["data_messages_delivered"] += 1
        if self.on_deliver is not None:
            logged = DataMessage(
                msg_id=message.msg_id,
                source=message.source,
                payload=message.payload,
                round_counter=0,
                signature=signature,
            )
            self.on_deliver(self.pid, logged, self.env.now())
        return message

    # -- the round loop ----------------------------------------------------------------

    def _round(self) -> None:
        if not self.running:
            return
        self.round_no += 1
        self.buffer.tick_round()
        for port in self.ports.tick_round():
            self.env.unbind(Address(self.pid, port))
        self.bounds.reset()

        # The operations within a round are not synchronised (Section 8):
        # a real node's send path runs on its own thread, so its gossip
        # goes out at an arbitrary point of the round, not the instant
        # the quota window opens.  This matters for fidelity: were the
        # offers sent exactly at quota reset, their replies would race
        # ahead of any flood and mask the shared-bounds vulnerability.
        # (``lo + (hi - lo) * random()`` is ``uniform(lo, hi)`` bit for bit.)
        offset = 0.5 * self.config.round_duration_ms * self.rng.random()
        self.env.schedule(offset, self._gossip)

        jitter = self.config.round_jitter
        factor = 1.0 + (-jitter + 2.0 * jitter * self.rng.random())
        self._round_handle = self.env.schedule(
            self.config.round_duration_ms * factor, self._round
        )

    def _gossip(self) -> None:
        """Send this round's push offers and pull requests."""
        if not self.running:
            return
        view_push, view_pull = select_disjoint_views(
            self.members,
            self.pid,
            [self.config.view_push_size, self.config.view_pull_size],
            self.rng,
        )
        for target in view_push:
            self._send_push_offer(target)
        for target in view_pull:
            self._send_pull_request(target)

    # -- push: offer -> reply -> data ------------------------------------------------------

    def _send_push_offer(self, target: int) -> None:
        reply_port = self.ports.allocate()
        self.env.bind(Address(self.pid, reply_port), self._on_push_reply)
        self._send(
            self._offer_addr,
            Address(target, PORT_PUSH_OFFER),
            PushOffer(sender=self.pid, reply_port=self._seal_for(target, reply_port)),
        )
        self.stats["offers_sent"] += 1

    def _on_push_offer(self, src: Address, payload: object) -> None:
        # Quota burns before validation: flooding this port costs us
        # exactly the acceptance slots the paper's model says it does.
        if not self.bounds.try_consume("push_offer"):
            return
        if not isinstance(payload, PushOffer):
            self.stats["invalid_dropped"] += 1
            return
        reply_port = self._unseal(payload.reply_port)
        if reply_port is None:
            self.stats["invalid_dropped"] += 1
            return
        data_port = self.ports.allocate()
        self.env.bind(Address(self.pid, data_port), self._on_push_data)
        self._send(
            self._offer_addr,
            Address(payload.sender, reply_port),
            PushReply(
                sender=self.pid,
                digest=self.buffer.digest(),
                data_port=self._seal_for(payload.sender, data_port),
            ),
        )
        self.stats["offers_answered"] += 1

    def _on_push_reply(self, src: Address, payload: object) -> None:
        if not self.bounds.try_consume("push_reply"):
            return
        if not isinstance(payload, PushReply):
            self.stats["invalid_dropped"] += 1
            return
        data_port = self._unseal(payload.data_port)
        if data_port is None:
            self.stats["invalid_dropped"] += 1
            return
        missing = self.buffer.messages_missing_from(
            payload.digest, limit=self.config.max_sends_per_partner
        )
        if not missing:
            return
        self._send(
            self._offer_addr,
            Address(payload.sender, data_port),
            PushData(sender=self.pid, messages=tuple(missing)),
        )
        self.stats["data_messages_sent"] += len(missing)

    def _on_push_data(self, src: Address, payload: object) -> None:
        if not self.bounds.try_consume("push_data"):
            return
        if not isinstance(payload, PushData):
            self.stats["invalid_dropped"] += 1
            return
        for message in payload.messages[: self.config.max_sends_per_partner]:
            self._deliver(message)

    # -- pull: request -> reply ---------------------------------------------------------------

    def _send_pull_request(self, target: int) -> None:
        if self.config.uses_random_ports:
            reply_port = self.ports.allocate()
            self.env.bind(Address(self.pid, reply_port), self._on_pull_data)
            advertised: object = self._seal_for(target, reply_port)
        else:
            advertised = PORT_PULL_REPLY
        self._send(
            self._request_addr,
            Address(target, PORT_PULL_REQUEST),
            PullRequest(
                sender=self.pid,
                digest=self.buffer.digest(),
                reply_port=advertised,
            ),
        )
        self.stats["pull_requests_sent"] += 1

    def _on_pull_request(self, src: Address, payload: object) -> None:
        if not self.bounds.try_consume("pull_request"):
            return
        if not isinstance(payload, PullRequest):
            self.stats["invalid_dropped"] += 1
            return
        reply_port = self._unseal(payload.reply_port)
        if reply_port is None:
            self.stats["invalid_dropped"] += 1
            return
        missing = self.buffer.messages_missing_from(
            payload.digest, limit=self.config.max_sends_per_partner
        )
        if not missing:
            return
        self._send(
            self._request_addr,
            Address(payload.sender, reply_port),
            PullReply(sender=self.pid, messages=tuple(missing)),
        )
        self.stats["pull_requests_answered"] += 1
        self.stats["data_messages_sent"] += len(missing)

    def _on_pull_data(self, src: Address, payload: object) -> None:
        if not self.bounds.try_consume("pull_data"):
            return
        if not isinstance(payload, PullReply):
            self.stats["invalid_dropped"] += 1
            return
        for message in payload.messages[: self.config.max_sends_per_partner]:
            self._deliver(message)

    # -- delivery -----------------------------------------------------------------------------

    def _deliver(self, message: DataMessage) -> None:
        """Sanity-check and deliver one data message to the application."""
        if not isinstance(message, DataMessage):
            self.stats["invalid_dropped"] += 1
            return
        if message.msg_id in self._seen:
            return
        source_key = self.peer_keys.get(message.source)
        if message.signature is not None and source_key is not None:
            # ``body_digest`` is memoised on the message object, so the
            # pickle+sha256 runs once per body rather than at every hop.
            if not verify(
                source_key,
                message.signed_body(),
                message.signature,
                digest=message.body_digest(),
                registry=self.registry,
            ):
                self.stats["invalid_dropped"] += 1
                return
        elif source_key is not None:
            # We know the source's key, so an unsigned message from it
            # fails the sanity checks.
            self.stats["invalid_dropped"] += 1
            return
        self._seen.add(message.msg_id)
        self.buffer.add(message, ttl=self._ttl_for(message))
        self.stats["data_messages_delivered"] += 1
        if self.on_deliver is not None:
            self.on_deliver(self.pid, message, self.env.now())

    # -- helpers ------------------------------------------------------------------------------

    def _ttl_for(self, message: DataMessage) -> Optional[int]:
        if self.ttl_policy is None:
            return None
        return self.ttl_policy(message)

    def _seal_for(self, target: int, port: int) -> object:
        key = self.peer_keys.get(target)
        return seal(key, port) if key is not None else port

    def _unseal(self, advertised: object) -> Optional[int]:
        if isinstance(advertised, SealedEnvelope):
            try:
                advertised = open_envelope(self.keys.private, advertised)
            except Exception:
                return None
        return advertised if isinstance(advertised, int) else None
