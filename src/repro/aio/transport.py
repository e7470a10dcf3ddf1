"""Datagram transports for the asyncio runtime.

Two ways onto the event loop, both keeping time on a
:class:`~repro.aio.env.LoopClock` (``schedule`` is an entry in its heap,
not a thread and not a loop timer of its own; ``now`` its event time),
and both running every callback on the loop itself:

- :class:`AioLoopbackTransport` — the one in-process
  :class:`~repro.des.environment.LoopbackTransport` on that clock.
- :class:`UdpTransport` — real UDP datagrams on localhost.  Each bound
  port is a non-blocking socket the loop watches; each readiness
  callback reads one datagram, decodes only the wire types
  (:func:`decode`) and calls the handler there and then, so the
  kernel's receive buffer is the only queue a flood fills.
"""

from __future__ import annotations

import errno
import io
import pickle
import socket
from typing import Callable, Dict, Optional, Tuple

from repro.aio.env import LoopClock
from repro.des.environment import LoopbackTransport
from repro.net.address import RANDOM_PORT_BASE, Address
from repro.net.transport import Handler, Transport


class _LoopTransport(Transport):
    """What both asyncio transports share: the loop's clock.

    Construct anywhere; call :meth:`attach` from loop context (the
    cluster does this in ``start()``) before traffic flows.  Loop
    thread only.
    """

    #: Clock ticks per round: a datagram leaving the process goes at the
    #: wall time of its pass, so the tick is latency on every hop.
    _TICKS_PER_ROUND = 128

    _closed = False
    dropped = 0

    def attach(self, loop=None, clock: Optional[LoopClock] = None) -> None:
        """Bind the transport to ``loop`` (default: the running loop) and
        to the cluster's ``clock`` (default: its own, coalescing nothing)."""
        self.clock = clock if clock is not None else LoopClock(loop)

    def schedule(self, delay_ms: float, fn: Callable, *args):
        """An event on the clock.

        Before :meth:`attach`, after ``close()`` or on a dead loop the
        call is a counted drop and returns ``None``, like ``send``.
        """
        clock = self.clock
        if self._closed or clock is None or clock.loop.is_closed():
            self.dropped += 1
            return None
        return clock.schedule(delay_ms, fn, *args)


class AioLoopbackTransport(_LoopTransport, LoopbackTransport):
    """The loopback transport on the asyncio loop.

    Sends before attachment are dropped like packets on a downed
    interface.
    """

    #: Every hop is a clock event, so the tick only batches wake-ups.
    _TICKS_PER_ROUND = 16


#: The classes that cross the wire, by module: the protocol's messages,
#: addresses, the crypto they carry, membership events, and the
#: attacker's fabricated payloads (a flood still spends port bounds).
WIRE_TYPES = {
    "repro.core.message": frozenset({
        "DataMessage", "Digest", "PullReply", "PullRequest", "PushData",
        "PushOffer", "PushReply",
    }),
    "repro.net.address": frozenset({"Address"}),
    "repro.crypto.certificates": frozenset({"Certificate"}),
    "repro.crypto.encryption": frozenset({"SealedEnvelope"}),
    "repro.crypto.keys": frozenset({"PublicKey"}),
    "repro.crypto.signatures": frozenset({"Signature"}),
    "repro.membership.events": frozenset({
        "JoinEvent", "LeaveEvent", "ExpelEvent",
    }),
    "repro.des.attacker": frozenset({"FabricatedPayload"}),
}


class _WireUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        if name not in WIRE_TYPES.get(module, ()):
            raise pickle.UnpicklingError(
                f"{module}.{name} does not cross the wire"
            )
        return super().find_class(module, name)


def decode(data: bytes) -> Optional[Tuple[Address, object]]:
    """The ``(sender, payload)`` pair a datagram carries, or None.

    None for anything else: a global outside :data:`WIRE_TYPES` (which
    is then neither constructed nor called), truncated bytes, or any
    other shape.
    """
    try:
        pair = _WireUnpickler(io.BytesIO(data)).load()
    except Exception:
        return None
    if type(pair) is tuple and len(pair) == 2 and type(pair[0]) is Address:
        return pair
    return None


#: Kernel errors meaning "not now" (a loaded localhost stack under flood
#: returns these): the datagram never left.
_TRANSIENT_ERRNOS = frozenset(
    {errno.EAGAIN, errno.EWOULDBLOCK, errno.ENOBUFS}
)


class UdpTransport(_LoopTransport):
    """UDP on localhost, read by the loop.

    Node/port addresses map onto real UDP ports as
    ``base_port + node * ports_per_node + slot``, where random ports
    occupy slots above the well-known region; ids below :attr:`max_ids`
    fit the port range.  :meth:`attach` opens the send socket, and each
    ``bind`` a non-blocking socket on the loop.  Nothing retries or
    waits: a datagram that does not decode is a counted drop
    (:attr:`dropped`), and so is a send the kernel refuses for now
    (:attr:`send_errors`).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        base_port: int = 20000,
        ports_per_node: int = 64,
    ):
        self.host = host
        self.base_port = base_port
        self.ports_per_node = ports_per_node
        self._sockets: Dict[Address, socket.socket] = {}
        self._send_sock: Optional[socket.socket] = None
        #: Sends lost to a transient kernel error (EAGAIN / ENOBUFS).
        self.send_errors = 0

    @property
    def max_ids(self) -> int:
        """How many node ids fit below port 65536."""
        return (65536 - self.base_port) // self.ports_per_node

    def _udp_port(self, addr: Address) -> int:
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

    def attach(self, loop=None, clock: Optional[LoopClock] = None) -> None:
        super().attach(loop, clock)
        if self._send_sock is None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.setblocking(False)
            self._send_sock = sock

    def bind(self, addr: Address, handler: Handler) -> None:
        if self.clock is None:
            raise RuntimeError("attach the transport to a loop before bind")
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setblocking(False)
        try:
            sock.bind((self.host, self._udp_port(addr)))
        except OSError:
            # Two random protocol ports mapped onto the same UDP slot.
            # The advertised port stays dark and anything sent there is
            # lost — indistinguishable from packet loss, which the
            # protocol already tolerates.
            sock.close()
            return
        self._sockets[addr] = sock
        self.clock.loop.add_reader(sock, self._read, sock, handler)

    def _read(self, sock: socket.socket, handler: Handler) -> None:
        """One readiness callback: one datagram, handled here."""
        try:
            data = sock.recv(65536)
        except OSError:  # a spurious wake-up
            return
        pair = decode(data)
        if pair is None:
            self.dropped += 1
            return
        handler(*pair)

    def unbind(self, addr: Address) -> None:
        sock = self._sockets.pop(addr, None)
        if sock is not None:
            self.clock.loop.remove_reader(sock)
            sock.close()

    def send(self, src: Address, dst: Address, payload: object) -> None:
        sock = self._send_sock
        if sock is None:
            return  # before attach or after close: a dead NIC
        try:
            sock.sendto(
                pickle.dumps((src, payload)), (self.host, self._udp_port(dst))
            )
        except OSError as exc:
            # Anything else is a closed port or an unreachable host:
            # UDP drops silently.
            if exc.errno in _TRANSIENT_ERRNOS:
                self.send_errors += 1

    def close(self) -> None:
        self._closed = True
        for addr in list(self._sockets):
            self.unbind(addr)
        if self._send_sock is not None:
            self._send_sock.close()
            self._send_sock = None
