"""Tests for the discrete-event loop and the simulated environment."""

import pytest

from conftest import sim_env

from repro.des import EventLoop
from repro.net import Address


class TestEventLoop:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule(10, lambda: fired.append("b"))
        loop.schedule(5, lambda: fired.append("a"))
        loop.schedule(20, lambda: fired.append("c"))
        loop.run_until(15)
        assert fired == ["a", "b"]
        assert loop.now == 15

    def test_same_time_fifo(self):
        loop = EventLoop()
        fired = []
        for tag in ("first", "second", "third"):
            loop.schedule(5, lambda t=tag: fired.append(t))
        loop.run_until(5)
        assert fired == ["first", "second", "third"]

    def test_cancel(self):
        loop = EventLoop()
        fired = []
        handle = loop.schedule(5, lambda: fired.append("x"))
        handle.cancel()
        loop.run_until(10)
        assert fired == []

    def test_nested_scheduling(self):
        loop = EventLoop()
        fired = []

        def outer():
            fired.append("outer")
            loop.schedule(5, lambda: fired.append("inner"))

        loop.schedule(1, outer)
        loop.run_until(10)
        assert fired == ["outer", "inner"]

    def test_run_until_idle(self):
        loop = EventLoop()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 5:
                loop.schedule(1, tick)

        loop.schedule(0, tick)
        executed = loop.run_until_idle()
        assert count[0] == 5
        assert executed == 5

    def test_runaway_guard(self):
        loop = EventLoop()

        def forever():
            loop.schedule(1, forever)

        loop.schedule(0, forever)
        with pytest.raises(RuntimeError):
            loop.run_until_idle(max_events=100)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().schedule(-1, lambda: None)

    def test_nan_delay_rejected(self):
        # A NaN key breaks the heap invariant: events queued around it
        # would silently never run.
        loop = EventLoop()
        fired = []
        loop.schedule(5, lambda: fired.append(5))
        with pytest.raises(ValueError):
            loop.schedule(float("nan"), lambda: fired.append("nan"))
        loop.schedule(1, lambda: fired.append(1))
        loop.schedule(3, lambda: fired.append(3))
        loop.run_until(10)
        assert fired == [1, 3, 5]
        assert loop.pending() == 0


class TestSimEnvironment:
    def test_send_and_receive_with_latency(self):
        env = sim_env(latency_range_ms=(1.0, 1.0), seed=1)
        received = []
        env.bind(Address(1, 5), lambda src, p: received.append((env.now(), p)))
        env.send(Address(0, 1), Address(1, 5), "hello")
        env.clock.run_until(10)
        assert len(received) == 1
        when, payload = received[0]
        assert payload == "hello"
        assert when == pytest.approx(1.0)

    def test_unbound_port_dead_letters(self):
        env = sim_env(seed=1)
        env.send(Address(0, 1), Address(9, 9), "x")
        env.clock.run_until(10)
        assert env.transport.inner.dropped == 1

    def test_loss(self):
        env = sim_env(loss=1.0, seed=1)
        received = []
        env.bind(Address(1, 5), lambda s, p: received.append(p))
        for _ in range(10):
            env.send(Address(0, 1), Address(1, 5), "x")
        env.clock.run_until(10)
        assert received == []
        assert env.transport.dropped == 10

    def test_unbind_stops_delivery(self):
        env = sim_env(seed=1)
        received = []
        addr = Address(1, 5)
        env.bind(addr, lambda s, p: received.append(p))
        env.send(Address(0, 1), addr, "x")
        env.unbind(addr)  # unbound before the latency elapses
        env.clock.run_until(10)
        assert received == []

    def test_latency_range_validated(self):
        with pytest.raises(ValueError):
            sim_env(latency_range_ms=(5.0, 1.0))

    def test_schedule_and_cancel(self):
        env = sim_env(seed=1)
        fired = []
        handle = env.schedule(5, lambda: fired.append(1))
        handle.cancel()
        env.clock.run_until(10)
        assert fired == []
