"""Datagram transports for the asyncio runtime.

Two ways onto the event loop:

- :class:`AioLoopbackTransport` — in-process delivery as a zero-delay
  event on the clock.  Sends from the loop itself (the common case:
  every node callback runs on the loop) enqueue directly; sends from
  foreign threads (a service worker, a test harness) marshal through
  ``call_soon_threadsafe``.
  Handler lookup happens at *dispatch* time, so a random port unbound
  between send and delivery dead-letters exactly like a closed socket.
- :class:`AioUdpBridge` — wraps the existing
  :class:`~repro.net.transport.UdpTransport`: real UDP datagrams on
  localhost, with the receiver threads' callbacks marshalled onto the
  loop so node logic still runs single-threaded.

Both keep time on a :class:`~repro.aio.env.LoopClock`: ``call_later``
is an entry in the clock's event heap, not a thread and not a loop
timer of its own, and ``time`` is its event time: a shaped link costs
one heap event per delayed packet, dispatched on the spot when it
fires (:meth:`deliver`), in due order with the rest of the cluster.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Callable, Dict, Optional

from repro.aio.env import LoopClock
from repro.des.engine import EventHandle
from repro.net.address import Address
from repro.net.link import LossModel
from repro.net.transport import Handler, Transport


class _LoopTransport(Transport):
    """What both asyncio transports share: the loop and its clock.

    Construct anywhere; call :meth:`attach` from loop context (the
    cluster does this in ``start()``) before traffic flows.
    """

    #: Clock ticks per round: a datagram leaving the process goes at the
    #: wall time of its pass, so the tick is latency on every hop.
    _TICKS_PER_ROUND = 128

    def __init__(self, loss: Optional[LossModel] = None):
        super().__init__(loss)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.clock: Optional[LoopClock] = None
        self._loop_thread: Optional[int] = None
        self._closed = False
        self.dropped = 0

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

    def time(self) -> float:
        """The clock's event time (before :meth:`attach`, the wall)."""
        return super().time() if self.clock is None else self.clock.time()

    def in_context(self) -> bool:
        """True on the loop thread, where the clock's events run."""
        return threading.get_ident() == self._loop_thread

    def call_later(self, delay_s: float, fn: Callable, *args):
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
            return clock.schedule(delay_s * 1000.0, fn, *args)
        # Off-loop caller: the event heap is not thread-safe, so the
        # loop arms it for the absolute time asked for (the hop does not
        # stretch the delay); the event checks the handle given back here.
        timer = EventHandle(clock._wall() + delay_s * 1000.0)
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


class AioLoopbackTransport(_LoopTransport):
    """Loopback transport dispatching every delivery on the event loop.

    Sends before attachment are dropped like packets on a downed
    interface.
    """

    #: Every hop is a clock event, so the tick only batches wake-ups.
    _TICKS_PER_ROUND = 16

    def __init__(self, loss: Optional[LossModel] = None):
        super().__init__(loss)
        self._handlers: Dict[Address, Handler] = {}
        self.delivered = 0

    def bind(self, addr: Address, handler: Handler) -> None:
        self._handlers[addr] = handler

    def unbind(self, addr: Address) -> None:
        self._handlers.pop(addr, None)

    def _dispatch(self, src: Address, dst: Address, payload: object) -> None:
        if self._closed:
            return
        handler = self._handlers.get(dst)
        if handler is None:
            self.dropped += 1
            return
        self.delivered += 1
        handler(src, payload)

    def send(self, src: Address, dst: Address, payload: object) -> None:
        loop = self._loop
        if self._closed or loop is None or loop.is_closed():
            self.dropped += 1
            return
        if self.loss is not None and not self.loss.delivered():
            self.dropped += 1
            return
        if threading.get_ident() == self._loop_thread:
            self.clock.schedule(0.0, self._dispatch, src, dst, payload)
        else:
            # Off-loop producer (a service worker thread, tests).
            try:
                loop.call_soon_threadsafe(self._dispatch, src, dst, payload)
            except RuntimeError:
                self.dropped += 1  # loop shut down mid-send

    def deliver(self, src: Address, dst: Address, payload: object) -> None:
        """``send`` from a clock event that runs no handler itself (a
        packet the shaper held back): dispatched now, not an event later."""
        if self._closed or self.loss is not None and not self.loss.delivered():
            self.dropped += 1
            return
        self._dispatch(src, dst, payload)

    def close(self) -> None:
        self._closed = True
        self._handlers.clear()


class AioUdpBridge(_LoopTransport):
    """Marshals a :class:`~repro.net.transport.UdpTransport` onto a loop.

    ``bind`` wraps each handler so the UDP receiver thread's callback is
    re-queued with ``call_soon_threadsafe``; ``send`` goes straight to
    the socket (sending is thread-agnostic).  The node logic therefore
    keeps the single-threaded execution model while the datagrams ride a
    real network stack.
    """

    def __init__(self, inner: Transport):
        super().__init__(loss=None)
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
