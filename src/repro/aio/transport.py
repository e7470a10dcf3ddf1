"""Datagram transports for the asyncio runtime.

Two ways onto the event loop, both keeping time on a
:class:`~repro.aio.env.LoopClock` (``schedule`` is an entry in its heap,
not a thread and not a loop timer of its own; ``now`` its event time):

- :class:`AioLoopbackTransport` — the one in-process
  :class:`~repro.des.environment.LoopbackTransport` on that clock.
  Events scheduled from foreign threads (a service worker, a test
  harness) marshal through ``call_soon_threadsafe``.
- :class:`AioUdpBridge` — wraps the existing
  :class:`~repro.net.transport.UdpTransport`: real UDP datagrams on
  localhost, with the receiver threads' callbacks marshalled onto the
  loop so node logic still runs single-threaded.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Callable, Optional

from repro.aio.env import LoopClock
from repro.des.engine import EventHandle
from repro.des.environment import LoopbackTransport
from repro.net.address import Address
from repro.net.transport import Handler, Transport


class _LoopTransport(Transport):
    """What both asyncio transports share: the loop and its clock.

    Construct anywhere; call :meth:`attach` from loop context (the
    cluster does this in ``start()``) before traffic flows.
    """

    #: Clock ticks per round: a datagram leaving the process goes at the
    #: wall time of its pass, so the tick is latency on every hop.
    _TICKS_PER_ROUND = 128

    _loop: Optional[asyncio.AbstractEventLoop] = None
    _loop_thread: Optional[int] = None
    _closed = False
    dropped = 0

    def attach(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        clock: Optional[LoopClock] = None,
    ) -> None:
        """Bind the transport to ``loop`` (default: the running loop) and
        to the cluster's ``clock`` (default: its own, coalescing nothing)."""
        self.clock = clock if clock is not None else LoopClock(loop)
        self._loop = self.clock.loop
        self._loop_thread = threading.get_ident()

    def in_context(self) -> bool:
        """True on the loop thread, where the clock's events run."""
        return threading.get_ident() == self._loop_thread

    def schedule(self, delay_ms: float, fn: Callable, *args):
        """An event on the clock; ``fn(*args)`` always runs on the loop
        thread.

        Before :meth:`attach`, after ``close()`` or on a dead loop the
        call is a counted drop and returns ``None``, like ``send``.
        """
        loop = self._loop
        if self._closed or loop is None or loop.is_closed():
            self.dropped += 1
            return None
        clock = self.clock
        if self.in_context():
            return clock.schedule(delay_ms, fn, *args)
        # Off-loop caller: the event heap is not thread-safe, so the
        # loop arms it for the absolute time asked for (the hop does not
        # stretch the delay); the event checks the handle given back here.
        timer = EventHandle(clock._wall() + delay_ms)
        try:
            loop.call_soon_threadsafe(self._arm_at, timer, fn, args)
        except RuntimeError:
            self.dropped += 1  # loop shut down mid-call
            return None
        return timer

    def _arm_at(self, timer: EventHandle, fn: Callable, args: tuple) -> None:
        delay_ms = max(0.0, timer.when - self.clock._wall())
        self.clock.schedule(delay_ms, self._unless_cancelled, timer, fn, args)

    @staticmethod
    def _unless_cancelled(timer: EventHandle, fn: Callable, args: tuple) -> None:
        if not timer.cancelled:
            fn(*args)


class AioLoopbackTransport(_LoopTransport, LoopbackTransport):
    """The loopback transport on the asyncio loop.

    Sends before attachment are dropped like packets on a downed
    interface.
    """

    #: Every hop is a clock event, so the tick only batches wake-ups.
    _TICKS_PER_ROUND = 16


class AioUdpBridge(_LoopTransport):
    """Marshals a :class:`~repro.net.transport.UdpTransport` onto a loop.

    ``bind`` wraps each handler so the UDP receiver thread's callback is
    re-queued with ``call_soon_threadsafe``; ``send`` goes straight to
    the socket (sending is thread-agnostic).  The node logic therefore
    keeps the single-threaded execution model while the datagrams ride a
    real network stack.
    """

    def __init__(self, inner: Transport):
        super().__init__()
        self.inner = inner

    def bind(self, addr: Address, handler: Handler) -> None:
        def _to_loop(src: Address, payload: object) -> None:
            loop = self._loop
            if self._closed or loop is None or loop.is_closed():
                self.dropped += 1
                return
            try:
                loop.call_soon_threadsafe(handler, src, payload)
            except RuntimeError:
                self.dropped += 1

        self.inner.bind(addr, _to_loop)

    def unbind(self, addr: Address) -> None:
        self.inner.unbind(addr)

    def send(self, src: Address, dst: Address, payload: object) -> None:
        if self._closed:
            return
        self.inner.send(src, dst, payload)

    def close(self) -> None:
        self._closed = True
        self.inner.close()
