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
from typing import Callable, Dict, Optional

from repro.des.engine import EventHandle, EventLoop


class LoopClock(EventLoop):
    """The event heap, fired from one armed asyncio handle.

    Inside a pass :attr:`now` is the running event's *due* time, so
    delays chain off due times as on the virtual clock and an
    overloaded loop runs the protocol in slow motion; outside one it is
    the wall, which :meth:`catch_up` brings the heap up to.  Stamps read
    :meth:`time`, so the tick (the handle waits for the earliest due
    time rounded *up* to a multiple of ``tick_ms``; 0 coalesces
    nothing) only sets how often the loop wakes.  A callback's exception
    goes to the loop's exception handler and the pass goes on.  Loop
    thread only.
    """

    catches_errors = True

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
        return dict(
            super().stats(), tick_ms=self.tick_ms, wakes=self.wakes,
            late_ms_max=self.late_ms_max, refused=self.refused,
        )

    def close(self) -> None:
        """Drop what is pending and never wake again."""
        super().close()
        self._armed_for = -math.inf
        if self._handle is not None:
            self._handle.cancel()
