"""The node's runtime environment abstraction.

:class:`~repro.des.node.GossipNode` is written against this small
interface — a clock, a timer facility, and a datagram service — so the
identical node logic runs on the deterministic discrete-event engine
(:class:`SimEnvironment`) and in wall-clock time over loopback or UDP
sockets (:class:`repro.aio.env.AsyncEnvironment`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.des.engine import EventLoop
from repro.net.address import Address
from repro.util import check_probability, derive_rng
from repro.util.rng import SeedLike

Handler = Callable[[Address, object], None]


class Environment(ABC):
    """Clock + timers + datagrams, as seen by one or more nodes."""

    @abstractmethod
    def now(self) -> float:
        """Current time in milliseconds."""

    @abstractmethod
    def schedule(self, delay_ms: float, fn: Callable, *args) -> object:
        """Run ``fn(*args)`` after ``delay_ms``; returns a cancellable handle."""

    @abstractmethod
    def cancel(self, handle: object) -> None:
        """Cancel a scheduled callback."""

    @abstractmethod
    def bind(self, addr: Address, handler: Handler) -> None:
        """Receive datagrams addressed to ``addr``."""

    @abstractmethod
    def unbind(self, addr: Address) -> None:
        """Stop receiving on ``addr``."""

    @abstractmethod
    def send(self, src: Address, dst: Address, payload: object) -> None:
        """Send one datagram (may be lost; closed ports swallow silently)."""


class SimEnvironment(Environment):
    """Deterministic environment over an :class:`EventLoop`.

    Datagrams experience i.i.d. Bernoulli loss and a uniform delivery
    latency — the paper's LAN model (latency well under half a round).
    """

    def __init__(
        self,
        loop: Optional[EventLoop] = None,
        *,
        loss: float = 0.0,
        latency_range_ms: Tuple[float, float] = (0.5, 2.0),
        seed: SeedLike = None,
        tracer=None,
    ):
        check_probability("loss", loss)
        lo, hi = latency_range_ms
        if not 0 <= lo <= hi:
            raise ValueError(
                f"latency_range_ms must satisfy 0 <= lo <= hi, got {latency_range_ms}"
            )
        self.loop = loop if loop is not None else EventLoop()
        self.loss = float(loss)
        self.latency_range_ms = (float(lo), float(hi))
        self._rng = derive_rng(seed)
        self._handlers: Dict[Address, Handler] = {}
        self.sent = 0
        self.lost = 0
        self.dead_lettered = 0
        self.blocked = 0
        self.duplicated = 0
        # Fault-injection hooks, assigned *after* construction (so the
        # constructor's seed position never moves) by the cluster's
        # fault wiring; each draws extra randomness only when set, which
        # keeps faultless seeded runs on their historical streams.
        #: Replacement loss sampler (``delivered() -> bool``), e.g. a
        #: :class:`~repro.faults.gilbert.GilbertElliottModel`; overrides
        #: the scalar ``loss``.
        self.loss_model = None
        #: A :class:`~repro.faults.plan.LinkFaults` for timing shaping:
        #: extra delay/jitter, reordering, duplication.
        self.link_faults = None
        #: Drop predicate ``(src_node, dst_node) -> bool`` for crash /
        #: partition / stall windows.
        self.block_fn = None
        # Observability: a repro.obs Tracer or None.  The DES is
        # continuous-time, so events carry ``t`` (sim milliseconds)
        # instead of a round number.  The tracer draws no randomness.
        self._tracer = tracer

    def now(self) -> float:
        return self.loop.now

    def schedule(self, delay_ms: float, fn: Callable, *args) -> object:
        return self.loop.schedule(delay_ms, fn, *args)

    def cancel(self, handle: object) -> None:
        handle.cancel()

    def bind(self, addr: Address, handler: Handler) -> None:
        self._handlers[addr] = handler

    def unbind(self, addr: Address) -> None:
        self._handlers.pop(addr, None)

    def is_bound(self, addr: Address) -> bool:
        """True while some node listens on ``addr``."""
        return addr in self._handlers

    def send(self, src: Address, dst: Address, payload: object) -> None:
        self.sent += 1
        tr = self._tracer
        if tr is not None:
            tr.gossip_sent(src.node, dst.node, dst.port, t=self.loop.now)
        if self.block_fn is not None and self.block_fn(src.node, dst.node):
            # A crashed machine or partition cut, not a lossy link:
            # counted separately, no randomness consumed.
            self.blocked += 1
            if tr is not None:
                tr.dropped(
                    "partition", node=dst.node, port=dst.port, t=self.loop.now
                )
            return
        model = self.loss_model  # replaces the scalar loss when set
        if (
            not model.delivered() if model is not None
            else self.loss and self._rng.random() < self.loss
        ):
            self.lost += 1
            if tr is not None:
                tr.dropped(
                    "loss", node=dst.node, port=dst.port, t=self.loop.now
                )
            return
        lo, hi = self.latency_range_ms
        # ``lo + (hi - lo) * random()`` is ``uniform(lo, hi)`` bit for bit.
        latency = lo if hi == lo else lo + (hi - lo) * self._rng.random()
        lf = self.link_faults
        if lf is not None:  # an unshaped link adds 0.0 and draws nothing
            latency += lf.delay_ms
            if lf.jitter_ms > 0:
                j = lf.jitter_ms
                latency = max(
                    0.0, latency + (-j + 2.0 * j * self._rng.random())
                )
            if lf.reorder_prob > 0 and self._rng.random() < lf.reorder_prob:
                # Hold the packet back past anything sent in the next
                # latency-plus-delay span, so it overtakes nothing and
                # later packets overtake it.
                span = hi + lf.delay_ms + lf.jitter_ms
                latency += span * (1.0 + self._rng.random())
            if (
                lf.duplicate_prob > 0
                and self._rng.random() < lf.duplicate_prob
            ):
                self.duplicated += 1
                dup = lo if hi == lo else lo + (hi - lo) * self._rng.random()
                self.loop.schedule(
                    dup + lf.delay_ms, self._deliver, src, dst, payload
                )

        self.loop.schedule(latency, self._deliver, src, dst, payload)

    def _deliver(self, src: Address, dst: Address, payload: object) -> None:
        handler = self._handlers.get(dst)
        if handler is None:
            self.dead_lettered += 1
            if self._tracer is not None:
                self._tracer.dropped(
                    "closed", node=dst.node, port=dst.port, t=self.loop.now
                )
            return
        handler(src, payload)

    @property
    def rng(self) -> np.random.Generator:
        return self._rng
