"""The wall clock of the one cluster host.

:class:`LoopClock` is the discrete-event heap
(:class:`~repro.des.engine.EventLoop`), pumped from an :mod:`asyncio`
loop: the aio cluster's one clock and only time base, under the same
node environment, loopback transport and link the virtual clock runs
(:mod:`repro.des.environment`, :mod:`repro.faults.live`).  It draws no
randomness.  All callbacks execute on the loop, so no lock is needed to
serialise protocol logic: cooperative scheduling *is* the lock.  Time
is milliseconds since the clock's creation.
"""

from __future__ import annotations

import asyncio
import math
from typing import Dict, Optional

from repro.des.engine import EventHandle, EventLoop


class LoopClock(EventLoop):
    """The event heap, fired from one armed asyncio handle.

    Inside a pass :attr:`now` is the running event's *due* time, so
    delays chain off due times as on the virtual clock and an
    overloaded loop runs the protocol in slow motion; outside one it is
    the wall, which :meth:`catch_up` brings the heap up to.  Stamps read
    :meth:`time`, so two intervals only set how the loop is woken: the
    handle sleeps until the earliest due time rounded *up* to a multiple
    of ``wake_ms`` (default ``tick_ms``; 0 coalesces nothing), and a
    pass stops at the first ``tick_ms`` boundary at or after its
    earliest event.  What a wake leaves due is chained at once, a pass
    per loop turn, so other tasks run in between.  An event queued from
    outside a pass (a coroutine's send, a node start) arms the handle at
    once; a pass arms for the earliest entry left when it ends.  A
    callback's exception goes to the loop's exception handler and the
    pass goes on.  Loop thread only.
    """

    catches_errors = True

    def __init__(self, loop=None, tick_ms: float = 0.0, wake_ms=None):
        super().__init__()
        self.loop = loop if loop is not None else asyncio.get_running_loop()
        self.tick_ms = tick_ms
        self.wake_ms = tick_ms if wake_ms is None else wake_ms
        self._origin = self.loop.time()
        self._handle: Optional[asyncio.TimerHandle] = None
        #: How far the armed pass will reach.
        self._armed_for = math.inf
        self._pumping = False
        self._closed = False
        self.wakes = 0
        self.refused = 0  # events queued after close() or on a closed loop
        #: Worst wall − due, read on the first event of each pass.
        self.late_ms_max = 0.0

    def _wall(self) -> float:
        return (self.loop.time() - self._origin) * 1000.0

    @property
    def now(self) -> float:
        if not self._pumping:
            self._now = self._wall()
        return self._now

    def _push(self, handle: EventHandle, delay_ms: float, fn, *args) -> bool:
        pumping = self._pumping
        if self._closed or not pumping and self.loop.is_closed():
            self.refused += 1  # nobody would pump it
            return False
        if pumping:  # the pass arms for what it leaves queued
            return EventLoop._push(self, handle, delay_ms, fn, *args)
        self._now = self._wall()
        EventLoop._push(self, handle, delay_ms, fn, *args)
        self._arm(self._now + delay_ms)  # if due before what is armed
        return True

    def _arm(self, when_ms: float) -> None:
        if self.wake_ms:
            when_ms += -when_ms % self.wake_ms  # up to the wake, never down
        if when_ms >= self._armed_for:
            return
        if self._handle is not None:
            self._handle.cancel()
        self._armed_for = when_ms
        self._handle = self.loop.call_at(
            self._origin + when_ms / 1000.0, self._pump
        )

    def _pump(self) -> None:
        wall = self._wall()
        if self._queue:
            self.late_ms_max = max(self.late_ms_max, wall - self._queue[0][0])
        self.wakes += 1
        self._pass(max(wall, self._armed_for))

    def catch_up(self) -> None:
        """A pass up to the wall now — while the pump is overdue (a
        saturated loop), one slice of it, and the pump chains the rest.
        Every entry from outside the clock calls this first."""
        if self._pumping or not self._queue:
            return
        wall = self._wall()
        if self._queue[0][0] <= wall:
            self._pass(wall, whole=self._armed_for > wall)

    def _pass(self, horizon: float, whole: bool = False) -> None:
        if self.tick_ms and not whole and self._queue:
            # A slice, up to the first tick boundary at or after the
            # earliest event: a backlog is worked off a tick per turn,
            # other tasks in between, instead of in passes that each
            # outlast the one before.
            first = self._queue[0][0]
            horizon = min(horizon, first + -first % self.tick_ms)
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
        return dict(
            super().stats(), tick_ms=self.tick_ms, wakes=self.wakes,
            late_ms_max=self.late_ms_max, refused=self.refused,
        )

    def close(self) -> None:
        """Drop what is pending and never wake again."""
        super().close()
        self._closed = True
        if self._handle is not None:
            self._handle.cancel()
