"""Asyncio implementation of the node environment.

:class:`LoopClock` is a cluster's one clock and only time base — the
discrete-event heap, pumped from an :mod:`asyncio` loop — and
:class:`AsyncEnvironment` gives one :class:`~repro.des.node.GossipNode`
(or :class:`~repro.des.attacker.AttackerProcess`) time, timers and a
datagram service on it.  Neither draws randomness: every stream a
node or attacker reads is its own, seeded by the cluster host.  All
callbacks execute on the loop, so no lock is needed to serialise
protocol logic: cooperative scheduling *is* the lock.  Time is
milliseconds since the clock's creation, matching the contract of
:class:`~repro.des.environment.Environment`.
"""

from __future__ import annotations

import asyncio
import functools
import math
from typing import Callable, Dict, Optional

from repro.des.engine import EventHandle, EventLoop
from repro.des.environment import Environment, Handler
from repro.net.address import Address
from repro.net.transport import Transport


class LoopClock(EventLoop):
    """The event heap, fired from one armed asyncio handle.

    Inside a pass :attr:`now` is the running event's *due* time, so
    delays chain off due times as on the virtual clock and an
    overloaded loop runs the protocol in slow motion; outside one it is
    the wall, which :meth:`catch_up` brings the heap up to.  Stamps read
    :meth:`time`, so the tick (the handle waits for the earliest due
    time rounded *up* to a multiple of ``tick_ms``; 0 coalesces
    nothing) only sets how often the loop wakes.  Loop thread only.
    """

    def __init__(self, loop=None, tick_ms: float = 0.0):
        super().__init__()
        self.loop = loop if loop is not None else asyncio.get_running_loop()
        self.tick_ms = tick_ms
        self._origin = self.loop.time()
        self._handle: Optional[asyncio.TimerHandle] = None
        #: How far the armed pass will reach; ``-inf`` once closed.
        self._armed_for = math.inf
        self._pumping = False
        self.wakes = 0
        self.refused = 0  # events scheduled after close()
        #: Worst wall − due, read on the first event of each pass.
        self.late_ms_max = 0.0

    def _wall(self) -> float:
        return (self.loop.time() - self._origin) * 1000.0

    @property
    def now(self) -> float:
        if not self._pumping:
            self._now = self._wall()
        return self._now

    def time(self) -> float:
        """:attr:`now` in ``loop.time()`` seconds — what stamps read."""
        return self._origin + self.now / 1000.0

    def schedule(self, delay_ms: float, fn: Callable, *args) -> EventHandle:
        if self._armed_for == -math.inf:  # closed: nobody would pump it
            self.refused += 1
            return EventHandle(self._now + delay_ms, cancelled=True)
        if self._pumping:
            return super().schedule(delay_ms, fn, *args)
        self._now = self._wall()
        handle = super().schedule(delay_ms, fn, *args)
        if handle.when < self._armed_for:
            self._arm(handle.when)
        return handle

    def _arm(self, when_ms: float) -> None:
        if self.tick_ms:
            when_ms += -when_ms % self.tick_ms  # up to the tick, never down
        if when_ms >= self._armed_for:
            return
        if self._handle is not None:
            self._handle.cancel()
        self._armed_for = when_ms
        self._handle = self.loop.call_at(
            self._origin + when_ms / 1000.0, self._pump
        )

    def _pump(self) -> None:
        wall, horizon = self._wall(), self._armed_for
        if self._queue:
            self.late_ms_max = max(self.late_ms_max, wall - self._queue[0][0])
        # With a tick a pass reaches the armed time and no further: a
        # backlog is worked off a tick per turn, other tasks in between,
        # instead of in passes that each outlast the one before.
        if not self.tick_ms and wall > horizon:
            horizon = wall
        self.wakes += 1
        self._pass(horizon)

    def catch_up(self) -> None:
        """A pass up to the wall now — with a tick, the armed tick at most,
        so a saturated loop still works a backlog off a tick per turn.
        Every entry from outside the clock calls this first."""
        if self._pumping or not self._queue:
            return
        wall = self._wall()
        horizon = min(wall, self._armed_for) if self.tick_ms else wall
        if self._queue[0][0] <= horizon:
            self._pass(horizon)

    def _pass(self, horizon: float) -> None:
        if self._handle is not None:
            self._handle.cancel()  # re-armed for what is left, below
        self._handle, self._armed_for = None, math.inf
        self._pumping = True
        try:
            while True:
                try:
                    self.run_until(horizon)
                    break
                except Exception as exc:
                    self.loop.call_exception_handler(
                        {"message": "clock callback failed", "exception": exc}
                    )
        finally:
            self._pumping = False
            if self._queue:
                self._arm(self._queue[0][0])

    def stats(self) -> Dict[str, float]:
        """The clock's self-health counters, for status reports."""
        return dict(
            tick_ms=self.tick_ms, wakes=self.wakes, events=self.events_run,
            late_ms_max=self.late_ms_max, refused=self.refused,
        )

    def close(self) -> None:
        """Drop what is pending and never wake again."""
        self._queue.clear()
        self._armed_for = -math.inf
        if self._handle is not None:
            self._handle.cancel()


class AsyncEnvironment(Environment):
    """One node's view of a shared clock and a shared transport.

    The cluster host builds one per node (and one per attacker) and
    re-points :attr:`transport` when a fault plan wraps it.  Every
    scheduled callback and every bound handler fires on the clock's
    loop.  ``on_error`` receives exceptions escaping a timer or receive
    callback — the loop would otherwise swallow them into its exception
    handler and the node would just go quiet (see the cluster's node
    watchdog).
    """

    def __init__(
        self,
        transport: Transport,
        *,
        clock: LoopClock,
        on_error: Optional[Callable[[BaseException], None]] = None,
    ):
        self.transport = transport
        self.clock = clock
        self._closed = False
        self.on_error = on_error

    def now(self) -> float:
        return self.clock.now

    def _fire(self, fn: Callable, *args) -> None:
        if self._closed:
            return
        self.clock.catch_up()  # a receive arriving from outside a pass
        try:
            fn(*args)
        except Exception as exc:
            if self.on_error is None:
                raise
            self.on_error(exc)

    def schedule(self, delay_ms: float, fn: Callable, *args) -> object:
        return self.clock.schedule(delay_ms, self._fire, fn, *args)

    def cancel(self, handle: object) -> None:
        handle.cancel()

    def bind(self, addr: Address, handler: Handler) -> None:
        self.transport.bind(addr, functools.partial(self._fire, handler))

    def unbind(self, addr: Address) -> None:
        self.transport.unbind(addr)

    def send(self, src: Address, dst: Address, payload: object) -> None:
        self.transport.send(src, dst, payload)

    def close(self) -> None:
        """Refuse further callbacks; pending timers fire as no-ops."""
        self._closed = True
