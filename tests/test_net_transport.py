"""Tests for repro.net.transport: in-memory and UDP datagram services."""

import errno
import threading
import time

import pytest

from repro.net import Address, InMemoryTransport, LossModel, UdpTransport


class TestInMemoryTransport:
    def test_roundtrip(self):
        transport = InMemoryTransport()
        received = []
        transport.bind(Address(1, 2), lambda src, payload: received.append((src, payload)))
        transport.send(Address(0, 1), Address(1, 2), "hello")
        assert received == [(Address(0, 1), "hello")]

    def test_unbound_address_drops(self):
        transport = InMemoryTransport()
        transport.send(Address(0, 1), Address(9, 9), "x")
        assert transport.dropped == 1

    def test_unbind_stops_delivery(self):
        transport = InMemoryTransport()
        received = []
        addr = Address(1, 2)
        transport.bind(addr, lambda s, p: received.append(p))
        transport.unbind(addr)
        transport.send(Address(0, 1), addr, "x")
        assert received == []

    def test_loss_model_applies(self):
        transport = InMemoryTransport(LossModel(1.0, seed=0))
        received = []
        transport.bind(Address(1, 2), lambda s, p: received.append(p))
        for _ in range(20):
            transport.send(Address(0, 1), Address(1, 2), "x")
        assert received == []

    def test_concurrent_sends(self):
        transport = InMemoryTransport()
        received = []
        lock = threading.Lock()

        def handler(src, payload):
            with lock:
                received.append(payload)

        transport.bind(Address(1, 2), handler)

        def sender(k):
            for i in range(100):
                transport.send(Address(0, 1), Address(1, 2), (k, i))

        threads = [threading.Thread(target=sender, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(received) == 400


class TestCallLater:
    """The default clock: one daemon timer thread per call."""

    def test_runs_fn_later_on_a_timer_thread(self):
        transport = InMemoryTransport()
        ran = []
        done = threading.Event()

        def fn():
            ran.append((time.monotonic(), threading.current_thread()))
            done.set()

        t0 = time.monotonic()
        handle = transport.call_later(0.03, fn)
        assert handle is not None and not ran
        assert done.wait(timeout=2.0)
        at, thread = ran[0]
        assert at - t0 >= 0.025
        assert thread is not threading.current_thread()
        assert thread.daemon

    def test_cancel_stops_the_call(self):
        transport = InMemoryTransport()
        ran = []
        transport.call_later(0.03, lambda: ran.append(1)).cancel()
        time.sleep(0.08)
        assert ran == []

    def test_udp_transport_inherits_the_default(self):
        assert UdpTransport.call_later is InMemoryTransport.call_later


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
