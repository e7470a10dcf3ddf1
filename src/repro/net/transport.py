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
    _closed = False
    #: Calls and datagrams refused because the transport was down.
    dropped = 0

    def now(self) -> float:
        """Milliseconds on :attr:`clock` (the monotonic wall without one)."""
        if self.clock is None:
            return time.monotonic() * 1000.0
        return self.clock.now

    def schedule(self, delay_ms: float, fn: Callable, *args):
        """Run ``fn(*args)`` after ``delay_ms`` in this transport's
        delivery context.

        Returns a handle with ``cancel()``, or ``None`` when the
        transport is down (no clock yet, closed, or its clock refused
        the event): ``fn`` will never run and :attr:`dropped` counts it,
        as a ``send`` would.
        """
        clock = self.clock
        if not self._closed and clock is not None:
            handle = clock.schedule(delay_ms, fn, *args)
            if not handle.cancelled:
                return handle
        self.dropped += 1
        return None

    def call_later(self, delay_s: float, fn: Callable, *args):
        """:meth:`schedule`, with the delay in seconds."""
        return self.schedule(delay_s * 1000.0, fn, *args)

    def close(self) -> None:
        """Release any resources held by the transport."""
