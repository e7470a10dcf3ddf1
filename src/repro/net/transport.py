"""Datagram transports for the threaded runtime.

The round-based simulator talks to :class:`~repro.net.network.Network`
directly; the *runtime* (Section 8-style measurements) instead sends real
datagrams between concurrently running nodes.  Two interchangeable
transports are provided:

- :class:`InMemoryTransport` — thread-safe loopback delivery between
  in-process nodes.  Deterministic-ish, fast, no OS resources; the
  default for tests and examples.
- :class:`UdpTransport` — real UDP sockets on localhost, demonstrating
  that the node logic runs over an actual network stack.

Both apply an optional :class:`~repro.net.link.LossModel` on send and
deliver to per-port handler callbacks registered by receivers.

Every transport also owns a clock — :meth:`Transport.call_later` ("run
this after a delay, in the context my deliveries run in") and
:meth:`Transport.time`.  The link shaper holds delayed packets and
counts fault rounds on it, so each stack pays for delay in its own
currency — a timer thread here, an event on the cluster's clock on
:mod:`repro.aio.transport`.
"""

from __future__ import annotations

import errno
import pickle
import socket
import threading
import time
from abc import ABC, abstractmethod
from typing import Callable, Dict, Optional

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

    def time(self) -> float:
        """Seconds on the clock ``call_later`` delays count on."""
        return time.monotonic()

    def call_later(self, delay_s: float, fn: Callable[[], None]):
        """Run ``fn`` after ``delay_s`` in this transport's delivery context.

        Returns a handle with ``cancel()``, or ``None`` when the
        transport is down: ``fn`` will never run and the transport has
        counted the drop, as its ``send`` would.  The default is one
        daemon timer thread per call, which suits the threaded runtime
        (handlers run on whatever thread delivers); a transport with an
        event loop overrides it.
        """
        timer = threading.Timer(delay_s, fn)
        timer.daemon = True
        timer.start()
        return timer

    def close(self) -> None:
        """Release any resources held by the transport."""


class InMemoryTransport(Transport):
    """Loopback transport delivering synchronously under a lock.

    Handlers run on the sender's thread, which mirrors UDP's behaviour of
    the receiver thread being woken immediately and keeps the runtime
    free of extra delivery threads.
    """

    def __init__(self, loss: Optional[LossModel] = None):
        super().__init__(loss)
        self._handlers: Dict[Address, Handler] = {}
        self._lock = threading.Lock()
        self.delivered = 0
        self.dropped = 0

    def bind(self, addr: Address, handler: Handler) -> None:
        with self._lock:
            self._handlers[addr] = handler

    def unbind(self, addr: Address) -> None:
        with self._lock:
            self._handlers.pop(addr, None)

    def send(self, src: Address, dst: Address, payload: object) -> None:
        if self.loss is not None and not self.loss.delivered():
            with self._lock:
                self.dropped += 1
            return
        with self._lock:
            handler = self._handlers.get(dst)
            if handler is None:
                self.dropped += 1
                return
            self.delivered += 1
        handler(src, payload)


class UdpTransport(Transport):
    """UDP/localhost transport.

    Node/port addresses are mapped onto real UDP ports as
    ``base_port + node * ports_per_node + port_slot``, where random ports
    occupy slots above the well-known region.  One receiver thread per
    bound address keeps the implementation simple; the runtime binds a
    handful of ports per node, so thread counts stay modest.
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
        self._threads: Dict[Address, threading.Thread] = {}
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
            self._threads[addr] = thread
        thread.start()

    def unbind(self, addr: Address) -> None:
        with self._lock:
            self._sockets.pop(addr, None)
            self._threads.pop(addr, None)
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
            self._threads.clear()
        for sock in sockets:
            try:
                sock.close()
            except OSError:
                pass
        with self._send_lock:
            self._send_sock.close()
