"""Datagram transports for the wall-clock runtime.

The round-based simulator talks to :class:`~repro.net.network.Network`
directly; the Section 8-style measurements (:mod:`repro.aio`) instead
send real datagrams between concurrently running nodes.
:class:`Transport` is the interface; :class:`UdpTransport` is real UDP
sockets on localhost, demonstrating that the node logic runs over an
actual network stack.  It applies an optional
:class:`~repro.net.link.LossModel` on send and delivers to per-port
handler callbacks registered by receivers.

A transport that can hold a packet back also carries a clock —
:meth:`Transport.schedule` ("run this after a delay, in the context my
deliveries run in") and :meth:`Transport.now` — which the link
(:class:`~repro.faults.live.FaultyTransport`) delays packets and counts
fault rounds on: the cluster's one clock, virtual
(:class:`~repro.des.environment.LoopbackTransport`) or asyncio
(:mod:`repro.aio.transport`; :class:`~repro.aio.transport.AioUdpBridge`
lends one to a :class:`UdpTransport`).
"""

from __future__ import annotations

import errno
import pickle
import socket
import threading
import time
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional

from repro.net.address import Address
from repro.net.link import LossModel

Handler = Callable[[Address, object], None]
"""Receive callback: (claimed sender address, payload)."""


class Transport(ABC):
    """Abstract datagram transport keyed by :class:`Address`."""

    def __init__(self, loss: Optional[LossModel] = None):
        self.loss = loss

    @abstractmethod
    def bind(self, addr: Address, handler: Handler) -> None:
        """Start delivering packets addressed to ``addr`` to ``handler``."""

    @abstractmethod
    def unbind(self, addr: Address) -> None:
        """Stop reception on ``addr``."""

    @abstractmethod
    def send(self, src: Address, dst: Address, payload: object) -> None:
        """Send one datagram.  Silently dropped on loss or closed port."""

    #: The clock :meth:`schedule` delays count on; None without one.
    clock = None

    def now(self) -> float:
        """Milliseconds on :attr:`clock` (the monotonic wall without one)."""
        if self.clock is None:
            return time.monotonic() * 1000.0
        return self.clock.now

    def schedule(self, delay_ms: float, fn: Callable, *args):
        """Run ``fn(*args)`` after ``delay_ms`` in this transport's
        delivery context.

        Returns a handle with ``cancel()``, or ``None`` when the
        transport is down: ``fn`` will never run and the transport has
        counted the drop, as its ``send`` would.  Only a transport with
        a clock can.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no clock to delay on; wrap it in "
            f"repro.aio.transport.AioUdpBridge"
        )

    def call_later(self, delay_s: float, fn: Callable, *args):
        """:meth:`schedule`, with the delay in seconds."""
        return self.schedule(delay_s * 1000.0, fn, *args)

    def in_context(self) -> bool:
        """True when the caller already runs in the delivery context
        :meth:`schedule` callbacks run in: with a clock and no loop
        thread, always; without a clock, never."""
        return self.clock is not None

    def close(self) -> None:
        """Release any resources held by the transport."""


class UdpTransport(Transport):
    """UDP/localhost transport.

    Node/port addresses are mapped onto real UDP ports as
    ``base_port + node * ports_per_node + port_slot``, where random ports
    occupy slots above the well-known region.  One receiver thread per
    bound address keeps the implementation simple; the runtime binds a
    handful of ports per node, so thread counts stay modest, and
    :meth:`close` returns only once every receiver has exited.
    """

    def __init__(
        self,
        loss: Optional[LossModel] = None,
        *,
        host: str = "127.0.0.1",
        base_port: int = 20000,
        ports_per_node: int = 64,
    ):
        super().__init__(loss)
        self.host = host
        self.base_port = base_port
        self.ports_per_node = ports_per_node
        self._sockets: Dict[Address, socket.socket] = {}
        #: Receivers not yet joined, unbound ones included: each runs
        #: until its next receive timeout notices the unbind.
        self._threads: List[threading.Thread] = []
        self._port_map: Dict[Address, int] = {}
        self._lock = threading.Lock()
        self._send_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._send_lock = threading.Lock()
        self._closed = False
        #: Sends retried after a transient kernel error (EAGAIN /
        #: ENOBUFS — a loaded localhost stack under flood returns these).
        self.send_retries = 0
        #: Sends abandoned after exhausting the retry budget.
        self.send_errors = 0

    def _udp_port(self, addr: Address) -> int:
        from repro.net.address import RANDOM_PORT_BASE

        if addr.port < RANDOM_PORT_BASE:
            slot = addr.port
        else:
            # Random ports are mapped modulo the per-node slot budget,
            # skipping the well-known region.
            well_known = 8
            slot = well_known + (addr.port - RANDOM_PORT_BASE) % (
                self.ports_per_node - well_known
            )
        return self.base_port + addr.node * self.ports_per_node + slot

    def bind(self, addr: Address, handler: Handler) -> None:
        udp_port = self._udp_port(addr)
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(0.2)
        try:
            sock.bind((self.host, udp_port))
        except OSError:
            # Two random protocol ports mapped onto the same UDP slot.
            # The advertised port stays dark and anything sent there is
            # lost — indistinguishable from packet loss, which the
            # protocol already tolerates.
            sock.close()
            return
        with self._lock:
            self._sockets[addr] = sock
            self._port_map[addr] = udp_port

        def _receive_loop() -> None:
            while True:
                with self._lock:
                    if self._closed or self._sockets.get(addr) is not sock:
                        break
                try:
                    data, _ = sock.recvfrom(65536)
                except socket.timeout:
                    continue
                except OSError:
                    break
                try:
                    src, payload = pickle.loads(data)
                except Exception:
                    continue  # malformed datagram: drop, as a real node would
                handler(src, payload)
            sock.close()

        thread = threading.Thread(target=_receive_loop, daemon=True)
        with self._lock:
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)
        thread.start()

    def unbind(self, addr: Address) -> None:
        with self._lock:
            self._sockets.pop(addr, None)
            self._port_map.pop(addr, None)

    #: Transient kernel errors worth one more try: the datagram never
    #: left, so retrying cannot duplicate it.
    _TRANSIENT_ERRNOS = frozenset(
        {errno.EAGAIN, errno.EWOULDBLOCK, errno.ENOBUFS}
    )
    #: Retry budget; backoff is ~1ms·2^k so the worst case stays under
    #: ~15 ms — less than a round, long enough for a send queue to drain.
    _MAX_SEND_RETRIES = 4

    def send(self, src: Address, dst: Address, payload: object) -> None:
        if self._closed:
            return  # send after close: drop, like any dead NIC
        if self.loss is not None and not self.loss.delivered():
            return
        data = pickle.dumps((src, payload))
        target = (self.host, self._udp_port(dst))
        for attempt in range(self._MAX_SEND_RETRIES + 1):
            try:
                with self._send_lock:
                    if self._closed:
                        return
                    self._send_sock.sendto(data, target)
                return
            except OSError as exc:
                if (
                    exc.errno not in self._TRANSIENT_ERRNOS
                    or attempt == self._MAX_SEND_RETRIES
                ):
                    if exc.errno in self._TRANSIENT_ERRNOS:
                        self.send_errors += 1
                    return  # closed port / unreachable: UDP drops silently
                self.send_retries += 1
                time.sleep(0.001 * (2**attempt))

    def close(self) -> None:
        with self._lock:
            self._closed = True
            sockets = list(self._sockets.values())
            self._sockets.clear()
            threads, self._threads = self._threads, []
        for sock in sockets:
            try:
                sock.close()
            except OSError:
                pass
        with self._send_lock:
            self._send_sock.close()
        # Each receiver sees the flag within one receive timeout.
        current = threading.current_thread()
        for thread in threads:
            if thread is not current:
                thread.join()
