"""The node's runtime environment and the in-process network.

:class:`~repro.des.node.GossipNode` is written against
:class:`Environment` — a clock, timers and a datagram service.  The one
cluster host gives every process its own on either clock (the virtual
:class:`~repro.des.engine.EventLoop` or the asyncio
:class:`~repro.aio.env.LoopClock`), over one link,
:class:`~repro.faults.live.FaultyTransport`, round a
:class:`LoopbackTransport`.  Neither piece here draws randomness.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Optional

from repro.net.address import Address
from repro.net.transport import Handler, Transport


class Environment:
    """One node's view of the shared clock and the shared network.

    Every scheduled callback and every bound handler fires on the
    clock.  ``on_error`` receives exceptions escaping a timer or receive
    callback — the wall clock's loop would otherwise swallow them into
    its exception handler and the node would just go quiet (see the
    cluster host's node watchdog).  Without it callbacks run unguarded
    and their exceptions propagate, out of ``run_until`` on the virtual
    clock.
    """

    def __init__(
        self,
        transport: Transport,
        *,
        clock,
        on_error: Optional[Callable[[BaseException], None]] = None,
    ):
        self.transport = transport
        self.clock = clock
        self._closed = False
        self.on_error = on_error
        #: Send one datagram (may be lost; closed ports swallow silently).
        self.send = transport.send

    def now(self) -> float:
        """Current time in milliseconds."""
        return self.clock.now

    def _fire(self, fn: Callable, *args) -> None:
        if self._closed:
            return
        self.clock.catch_up()  # a receive arriving from outside a pass
        try:
            fn(*args)
        except Exception as exc:
            self.on_error(exc)

    def schedule(self, delay_ms: float, fn: Callable, *args) -> object:
        """Run ``fn(*args)`` after ``delay_ms``; returns a cancellable handle."""
        if self.on_error is None:
            return self.clock.schedule(delay_ms, fn, *args)
        return self.clock.schedule(delay_ms, self._fire, fn, *args)

    def bind(self, addr: Address, handler: Handler) -> None:
        """Receive datagrams addressed to ``addr``."""
        if self.on_error is not None:
            handler = functools.partial(self._fire, handler)
        self.transport.bind(addr, handler)

    def unbind(self, addr: Address) -> None:
        self.transport.unbind(addr)

    def close(self) -> None:
        """Refuse further guarded callbacks; pending ones fire as no-ops."""
        self._closed = True


class LoopbackTransport(Transport):
    """In-process datagrams: each delivery is one event on ``clock``.

    Handler lookup happens at dispatch time, so a port unbound between
    send and delivery dead-letters exactly like a closed socket.  A
    schedule before a clock is given, or after :meth:`close`, is a
    counted drop.
    """

    def __init__(self, clock=None):
        super().__init__()
        self.clock = clock
        self._handlers: Dict[Address, Handler] = {}
        self._closed = False
        self.delivered = 0
        self.dropped = 0

    def bind(self, addr: Address, handler: Handler) -> None:
        self._handlers[addr] = handler

    def unbind(self, addr: Address) -> None:
        self._handlers.pop(addr, None)

    def schedule(self, delay_ms: float, fn: Callable, *args):
        if self._closed or self.clock is None:
            self.dropped += 1
            return None
        return self.clock.schedule(delay_ms, fn, *args)

    def send(self, src: Address, dst: Address, payload: object) -> None:
        self.schedule(0.0, self.deliver, src, dst, payload)

    def deliver(self, src: Address, dst: Address, payload: object) -> bool:
        """Dispatch now, from a clock event; False when nobody listens."""
        handler = self._handlers.get(dst)
        if handler is None:
            self.dropped += 1
            return False
        self.delivered += 1
        handler(src, payload)
        return True

    def close(self) -> None:
        self._closed = True
        self._handlers.clear()
