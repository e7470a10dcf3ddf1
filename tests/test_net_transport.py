"""Tests for the UDP datagram service (`repro.aio.transport.UdpTransport`)."""

import asyncio
import errno
import importlib
import time

from repro.aio.transport import WIRE_TYPES, AioLoopbackTransport, UdpTransport
from repro.net import Address


class TestCallLater:
    """``call_later`` on a transport that carries a clock."""

    def test_cancel_stops_the_call(self):
        async def go():
            transport = AioLoopbackTransport()
            transport.attach()
            ran = []
            transport.call_later(0.03, lambda: ran.append(1)).cancel()
            await asyncio.sleep(0.08)
            transport.close()
            return ran

        assert asyncio.run(go()) == []


class TestUdpTransport:
    def test_roundtrip_localhost(self):
        async def go():
            transport = UdpTransport(base_port=23000, ports_per_node=16)
            transport.attach()
            arrived = asyncio.get_running_loop().create_future()
            transport.bind(
                Address(1, 2),
                lambda src, payload: arrived.set_result((src, payload)),
            )
            transport.send(Address(0, 1), Address(1, 2), {"k": "v"})
            try:
                return await asyncio.wait_for(arrived, 2.0)
            finally:
                transport.close()

        assert asyncio.run(go()) == (Address(0, 1), {"k": "v"})

    def test_close_joins_every_receiver(self):
        """Close removes every reader and closes every socket."""

        async def go():
            selector = asyncio.get_running_loop()._selector
            watched = len(selector.get_map())
            transport = UdpTransport(base_port=23200, ports_per_node=16)
            transport.attach()
            for port in range(3):
                transport.bind(Address(1, port), lambda s, p: None)
            sockets = list(transport._sockets.values())
            assert len(selector.get_map()) == watched + 3
            transport.unbind(Address(1, 0))
            assert sockets[0].fileno() == -1
            assert len(selector.get_map()) == watched + 2
            transport.close()
            assert len(selector.get_map()) == watched
            assert [s.fileno() for s in sockets] == [-1, -1, -1]
            assert transport._sockets == {} and transport._send_sock is None

        asyncio.run(go())

    def test_call_later_needs_a_clock(self):
        """Before ``attach`` a call is a counted drop."""
        transport = UdpTransport(base_port=23300, ports_per_node=16)
        assert transport.call_later(0.01, lambda: None) is None
        assert transport.dropped == 1
        transport.close()

    def test_send_to_unbound_is_silent(self):
        async def go():
            transport = UdpTransport(base_port=23400, ports_per_node=16)
            transport.attach()
            transport.send(Address(0, 1), Address(3, 2), "nobody-home")
            transport.close()
            return transport.send_errors

        assert asyncio.run(go()) == 0

    def test_port_mapping_disjoint_across_nodes(self):
        transport = UdpTransport(base_port=23800, ports_per_node=16)
        try:
            ports = {
                transport._udp_port(Address(node, port))
                for node in range(3)
                for port in range(4)
            }
            assert len(ports) == 12
        finally:
            transport.close()

    def test_random_ports_map_into_budget(self):
        from repro.net.address import RANDOM_PORT_BASE

        transport = UdpTransport(base_port=24200, ports_per_node=16)
        try:
            for rp in (RANDOM_PORT_BASE, RANDOM_PORT_BASE + 123, RANDOM_PORT_BASE + 99999):
                udp = transport._udp_port(Address(2, rp))
                assert 24200 + 2 * 16 <= udp < 24200 + 3 * 16
        finally:
            transport.close()


class _FlakySocket:
    """A sendto stub that fails ``failures`` times before succeeding."""

    def __init__(self, failures, err=errno.EAGAIN):
        self.failures = failures
        self.err = err
        self.sent = []
        self.calls = 0

    def sendto(self, data, target):
        self.calls += 1
        if self.calls <= self.failures:
            raise OSError(self.err, "simulated transient error")
        self.sent.append((data, target))

    def close(self):
        pass


class TestUdpRobustness:
    """Hardening behaviour: closed guard, send errors, the wire types."""

    def test_send_after_close_is_noop(self):
        transport = UdpTransport(base_port=24600, ports_per_node=16)
        transport.close()
        # No exception, no error accounting: the datagram just vanishes.
        transport.send(Address(0, 1), Address(1, 2), "late")
        assert transport.send_errors == 0

    def test_double_close_is_safe(self):
        transport = UdpTransport(base_port=24650, ports_per_node=16)
        transport.close()
        transport.close()

    def send_once(self, monkeypatch, err):
        """One send through a socket that keeps failing with ``err``."""

        def refuse(_s):
            raise AssertionError("send slept")

        monkeypatch.setattr(time, "sleep", refuse)
        transport = UdpTransport(base_port=24750, ports_per_node=16)
        flaky = _FlakySocket(failures=99, err=err)
        transport._send_sock = flaky
        transport.send(Address(0, 1), Address(1, 2), "dropped")
        transport.close()
        return transport, flaky

    def test_transient_error_retried_with_bounded_backoff(self, monkeypatch):
        """A transient errno is one counted drop, with no sleep."""
        transport, flaky = self.send_once(monkeypatch, errno.EAGAIN)
        assert (flaky.calls, flaky.sent, transport.send_errors) == (1, [], 1)

    def test_retry_budget_exhausted_counts_an_error(self, monkeypatch):
        """ENOBUFS too: one try, one counted drop."""
        transport, flaky = self.send_once(monkeypatch, errno.ENOBUFS)
        assert (flaky.calls, flaky.sent, transport.send_errors) == (1, [], 1)

    def test_non_transient_error_not_retried(self, monkeypatch):
        transport, flaky = self.send_once(monkeypatch, errno.ECONNREFUSED)
        assert (flaky.calls, transport.send_errors) == (1, 0)

    def test_every_wire_type_resolves(self):
        """A renamed message class would silently fail to decode."""
        for module, names in WIRE_TYPES.items():
            for name in names:
                assert isinstance(
                    getattr(importlib.import_module(module), name), type
                )
