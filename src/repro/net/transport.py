"""The datagram transport interface of the wall-clock runtime.

The round-based simulator talks to :class:`~repro.net.network.Network`
directly; the cluster host (:mod:`repro.des.cluster`, and
:mod:`repro.aio` on the wall clock) instead sends datagrams between
concurrently running nodes through a :class:`Transport`, which delivers
to per-port handler callbacks registered by receivers.

A transport also carries a clock — :meth:`Transport.schedule` ("run
this after a delay, in the context my deliveries run in") and
:meth:`Transport.now` — which the link
(:class:`~repro.faults.live.FaultyTransport`) delays packets and counts
fault rounds on: the cluster's one clock, virtual
(:class:`~repro.des.environment.LoopbackTransport`) or asyncio
(:mod:`repro.aio.transport`: in-process loopback, or real UDP sockets
read by the loop itself).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Callable

from repro.net.address import Address

Handler = Callable[[Address, object], None]
"""Receive callback: (claimed sender address, payload)."""


class Transport(ABC):
    """Abstract datagram transport keyed by :class:`Address`."""

    @abstractmethod
    def bind(self, addr: Address, handler: Handler) -> None:
        """Start delivering packets addressed to ``addr`` to ``handler``."""

    @abstractmethod
    def unbind(self, addr: Address) -> None:
        """Stop reception on ``addr``."""

    @abstractmethod
    def send(self, src: Address, dst: Address, payload: object) -> None:
        """Send one datagram.  Silently dropped on loss or closed port."""

    #: The clock :meth:`schedule` delays count on; None until given one.
    clock = None

    def now(self) -> float:
        """Milliseconds on :attr:`clock` (the monotonic wall without one)."""
        if self.clock is None:
            return time.monotonic() * 1000.0
        return self.clock.now

    @abstractmethod
    def schedule(self, delay_ms: float, fn: Callable, *args):
        """Run ``fn(*args)`` after ``delay_ms`` in this transport's
        delivery context.

        Returns a handle with ``cancel()``, or ``None`` when the
        transport is down: ``fn`` will never run and the transport has
        counted the drop, as its ``send`` would.
        """

    def call_later(self, delay_s: float, fn: Callable, *args):
        """:meth:`schedule`, with the delay in seconds."""
        return self.schedule(delay_s * 1000.0, fn, *args)

    def close(self) -> None:
        """Release any resources held by the transport."""
