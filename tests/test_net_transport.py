"""Tests for repro.net.transport: the UDP datagram service."""

import asyncio
import errno
import threading
import time

import pytest

from repro.aio.transport import AioLoopbackTransport
from repro.net import Address, LossModel, UdpTransport


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
        transport = UdpTransport(base_port=23000, ports_per_node=16)
        received = []
        event = threading.Event()

        def handler(src, payload):
            received.append((src, payload))
            event.set()

        transport.bind(Address(1, 2), handler)
        time.sleep(0.05)
        transport.send(Address(0, 1), Address(1, 2), {"k": "v"})
        assert event.wait(timeout=2.0), "datagram never arrived"
        transport.close()
        assert received[0] == (Address(0, 1), {"k": "v"})

    def test_close_joins_every_receiver(self):
        before = threading.active_count()
        transport = UdpTransport(base_port=23200, ports_per_node=16)
        for port in range(3):
            transport.bind(Address(1, port), lambda s, p: None)
        transport.unbind(Address(1, 0))  # still running until it notices
        assert threading.active_count() == before + 3
        transport.close()
        assert threading.active_count() == before

    def test_call_later_needs_a_clock(self):
        transport = UdpTransport(base_port=23300, ports_per_node=16)
        with pytest.raises(NotImplementedError, match="AioUdpBridge"):
            transport.call_later(0.01, lambda: None)
        transport.close()

    def test_send_to_unbound_is_silent(self):
        transport = UdpTransport(base_port=23400, ports_per_node=16)
        transport.send(Address(0, 1), Address(3, 2), "nobody-home")
        transport.close()

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
    """Hardening behaviour: closed guard, loss interaction, retries."""

    def test_send_after_close_is_noop(self):
        transport = UdpTransport(base_port=24600, ports_per_node=16)
        transport.close()
        # No exception, no retry accounting: the datagram just vanishes.
        transport.send(Address(0, 1), Address(1, 2), "late")
        assert transport.send_retries == 0
        assert transport.send_errors == 0

    def test_double_close_is_safe(self):
        transport = UdpTransport(base_port=24650, ports_per_node=16)
        transport.close()
        transport.close()

    def test_loss_model_consulted_before_socket(self):
        transport = UdpTransport(
            LossModel(1.0, seed=0), base_port=24700, ports_per_node=16
        )
        try:
            flaky = _FlakySocket(failures=0)
            transport._send_sock = flaky
            for _ in range(10):
                transport.send(Address(0, 1), Address(1, 2), "x")
            assert flaky.calls == 0  # all lost before reaching the kernel
        finally:
            transport._send_sock = _FlakySocket(0)
            transport.close()

    def test_transient_error_retried_with_bounded_backoff(self):
        transport = UdpTransport(base_port=24750, ports_per_node=16)
        try:
            flaky = _FlakySocket(failures=2)
            transport._send_sock = flaky
            t0 = time.monotonic()
            transport.send(Address(0, 1), Address(1, 2), "retry-me")
            elapsed = time.monotonic() - t0
            assert len(flaky.sent) == 1
            assert transport.send_retries == 2
            assert transport.send_errors == 0
            # Backoff for two retries is ~1ms + ~2ms; bounded well under
            # the test-suite latency budget.
            assert elapsed < 0.05
        finally:
            transport._send_sock = _FlakySocket(0)
            transport.close()

    def test_retry_budget_exhausted_counts_an_error(self):
        transport = UdpTransport(base_port=24800, ports_per_node=16)
        try:
            flaky = _FlakySocket(failures=99, err=errno.ENOBUFS)
            transport._send_sock = flaky
            transport.send(Address(0, 1), Address(1, 2), "doomed")
            assert flaky.sent == []
            assert transport.send_retries == transport._MAX_SEND_RETRIES
            assert transport.send_errors == 1
        finally:
            transport._send_sock = _FlakySocket(0)
            transport.close()

    def test_non_transient_error_not_retried(self):
        transport = UdpTransport(base_port=24850, ports_per_node=16)
        try:
            flaky = _FlakySocket(failures=99, err=errno.ECONNREFUSED)
            transport._send_sock = flaky
            transport.send(Address(0, 1), Address(1, 2), "refused")
            assert flaky.calls == 1
            assert transport.send_retries == 0
            assert transport.send_errors == 0
        finally:
            transport._send_sock = _FlakySocket(0)
            transport.close()
