"""The discrete-event loop.

A plain priority-queue scheduler over virtual milliseconds.  Events
scheduled for the same instant fire in scheduling order, which keeps
runs fully deterministic for a given seed.  It is the virtual clock of
the one cluster host; :class:`~repro.aio.env.LoopClock` is the same
heap fired from an asyncio loop, behind the same surface.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple


@dataclass(slots=True)
class EventHandle:
    """Returned by :meth:`EventLoop.schedule`; allows cancellation."""

    when: float
    cancelled: bool = False

    def cancel(self) -> None:
        self.cancelled = True


class EventLoop:
    """A virtual-time event scheduler."""

    #: Seconds at clock time 0, the base :meth:`time` counts from.
    _origin = 0.0
    #: Whether a callback's exception stays inside the clock; here it
    #: propagates out of :meth:`run_until`.
    catches_errors = False

    def __init__(self):
        self._now = 0.0
        self._seq = itertools.count()
        self._queue: List[Tuple[float, int, EventHandle, Callable, tuple]] = []
        self.events_run = 0

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    def time(self) -> float:
        """:attr:`now` in seconds from :attr:`_origin`."""
        return self._origin + self.now / 1000.0

    def catch_up(self) -> None:
        """Virtual time moves only in :meth:`run_until`: nothing is due."""

    def schedule(self, delay_ms: float, fn: Callable, *args) -> EventHandle:
        """Run ``fn(*args)`` after ``delay_ms`` of virtual time."""
        if not delay_ms >= 0:  # also rejects NaN, which would corrupt the heap
            raise ValueError(f"delay_ms must be >= 0, got {delay_ms}")
        when = self._now + delay_ms
        handle = EventHandle(when)
        heapq.heappush(self._queue, (when, next(self._seq), handle, fn, args))
        return handle

    def run_until(self, t_end: float) -> int:
        """Execute events up to and including virtual time ``t_end``.

        Returns the number of events executed.  The clock lands exactly
        on ``t_end`` afterwards even if the queue drained early.
        """
        queue, pop = self._queue, heapq.heappop
        executed = 0
        try:
            while queue and queue[0][0] <= t_end:
                when, _, handle, fn, args = pop(queue)
                if handle.cancelled:
                    continue
                self._now = when
                fn(*args)
                executed += 1
        finally:  # a raising callback is not counted, the ones before it are
            self.events_run += executed
        self._now = max(self._now, t_end)
        return executed

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Drain the queue completely (bounded by ``max_events``)."""
        executed = 0
        while self._queue:
            if executed >= max_events:
                raise RuntimeError(
                    f"event loop did not go idle within {max_events} events"
                )
            when, _, handle, fn, args = heapq.heappop(self._queue)
            if handle.cancelled:
                continue
            self._now = when
            fn(*args)
            executed += 1
            self.events_run += 1
        return executed

    def pending(self) -> int:
        """Events still queued (including cancelled tombstones)."""
        return len(self._queue)

    def stats(self) -> Dict[str, float]:
        """The clock's self-health counters, for status reports."""
        return {"events": self.events_run}

    def close(self) -> None:
        """Drop what is pending."""
        self._queue.clear()
