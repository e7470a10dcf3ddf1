"""Fault injection + hardening on the live runtimes.

These tests exercise real threads, a real event loop and wall-clock
timers, so rounds are kept short (50-100 ms) and assertions are about
structure (counters, errors, lifecycle, which thread ran what) rather
than precise timing.
"""

import asyncio
import threading
import time

import pytest

from repro.aio.transport import AioLoopbackTransport, AioUdpBridge
from repro.faults import FaultPlan, FaultSchedule
from repro.faults.live import FaultyTransport, LiveFaultDriver
from repro.net import Address, InMemoryTransport, UdpTransport
from repro.runtime.cluster import LiveCluster, LiveClusterConfig


class TestFaultyTransport:
    def test_partition_blocks_member_traffic(self):
        inner = InMemoryTransport()
        plan = FaultPlan.parse("partition@1-100:0.5")
        transport = FaultyTransport(
            inner, plan, n=4, num_alive_correct=4, round_duration_ms=10_000.0
        )
        received = []
        transport.bind(Address(3, 0), lambda s, p: received.append(p))
        transport.start_clock()
        transport.send(Address(0, 0), Address(3, 0), "cut")      # across
        transport.send(Address(2, 0), Address(3, 0), "same-side")
        transport.send(Address(10**6, 0), Address(3, 0), "flood")  # external
        transport.close()
        assert transport.blocked == 1
        assert sorted(received) == ["flood", "same-side"]

    def test_gilbert_loss_drops_packets(self):
        inner = InMemoryTransport()
        plan = FaultPlan.parse("loss:1.0")
        transport = FaultyTransport(
            inner, plan, n=2, num_alive_correct=2,
            round_duration_ms=1000.0, seed=1,
        )
        received = []
        transport.bind(Address(1, 0), lambda s, p: received.append(p))
        for _ in range(20):
            transport.send(Address(0, 0), Address(1, 0), "x")
        transport.close()
        assert received == []
        assert transport.dropped == 20

    def test_delay_defers_delivery(self):
        inner = InMemoryTransport()
        plan = FaultPlan.parse("delay:30")
        transport = FaultyTransport(
            inner, plan, n=2, num_alive_correct=2,
            round_duration_ms=1000.0, seed=1,
        )
        arrived = threading.Event()
        transport.bind(Address(1, 0), lambda s, p: arrived.set())
        t0 = time.monotonic()
        transport.send(Address(0, 0), Address(1, 0), "slow")
        assert not arrived.is_set()  # not delivered synchronously
        assert arrived.wait(timeout=2.0)
        assert time.monotonic() - t0 >= 0.025
        assert transport.delayed == 1
        transport.close()

    def test_duplication_delivers_twice(self):
        inner = InMemoryTransport()
        plan = FaultPlan.parse("dup:1.0")
        transport = FaultyTransport(
            inner, plan, n=2, num_alive_correct=2,
            round_duration_ms=1000.0, seed=1,
        )
        received = []
        lock = threading.Lock()

        def handler(src, payload):
            with lock:
                received.append(payload)

        transport.bind(Address(1, 0), handler)
        transport.send(Address(0, 0), Address(1, 0), "twice")
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            with lock:
                if len(received) == 2:
                    break
            time.sleep(0.005)
        transport.close()
        assert received == ["twice", "twice"]
        assert transport.duplicated == 1

    def test_close_cancels_pending_timers(self):
        inner = InMemoryTransport()
        plan = FaultPlan.parse("delay:500")
        transport = FaultyTransport(
            inner, plan, n=2, num_alive_correct=2,
            round_duration_ms=1000.0, seed=1,
        )
        received = []
        transport.bind(Address(1, 0), lambda s, p: received.append(p))
        transport.send(Address(0, 0), Address(1, 0), "never")
        transport.close()
        time.sleep(0.05)
        assert received == []
        # Send after close is a silent no-op.
        transport.send(Address(0, 0), Address(1, 0), "late")


SHAPED = "loss:0.02; delay:20~10; reorder:0.2; dup:0.1"
SRC, DST = Address(0, 1), Address(1, 1)


def shaper(inner, spec=SHAPED, seed=3):
    return FaultyTransport(
        inner, FaultPlan.parse(spec), n=2, num_alive_correct=2,
        round_duration_ms=1000.0, seed=seed,
    )


@pytest.fixture
def no_timer_threads(monkeypatch):
    """Any ``threading.Timer`` the code under test starts is a failure."""

    def refuse(*args, **kwargs):
        raise AssertionError("the shaper started a threading.Timer")

    monkeypatch.setattr(threading, "Timer", refuse)


class Arrivals:
    """A handler recording, per packet, who ran it and how long it took."""

    def __init__(self):
        self.index = []
        self.age_ms = []
        self.threads = set()

    def __call__(self, src, payload):
        index, sent_at = payload
        self.index.append(index)
        self.age_ms.append((time.monotonic() - sent_at) * 1000.0)
        self.threads.add(threading.get_ident())

    def reordered(self):
        return any(a > b for a, b in zip(self.index, self.index[1:]))


async def send_and_drain(transport, sends, *, burst=100, timeout_s=20.0):
    """``sends`` stamped packets in bursts, then wait the delay line out.

    Returns the highest thread count seen while packets were in flight.
    """
    threads = threading.active_count()
    for first in range(0, sends, burst):
        for i in range(first, min(first + burst, sends)):
            transport.send(SRC, DST, (i, time.monotonic()))
        await asyncio.sleep(0.005)
        threads = max(threads, threading.active_count())
    deadline = time.monotonic() + timeout_s
    while transport.pending and time.monotonic() < deadline:
        await asyncio.sleep(0.01)
    assert transport.pending == 0, "delay line never drained"
    return threads


@pytest.mark.usefixtures("no_timer_threads")
class TestFaultyTransportOnLoop:
    """Over an asyncio transport the delay line is the loop's timer heap."""

    def test_shaped_sends_start_no_threads(self):
        sends = 2000

        async def go():
            inner = AioLoopbackTransport()
            inner.attach()
            transport = shaper(inner)
            arrivals = Arrivals()
            transport.bind(DST, arrivals)
            before = threading.active_count()
            peak = await send_and_drain(transport, sends)
            await asyncio.sleep(0.01)  # the last call_soon dispatches
            transport.close()
            return transport, inner, arrivals, before, peak

        transport, inner, arrivals, before, peak = asyncio.run(go())
        assert peak == before == threading.active_count()
        assert arrivals.threads == {threading.get_ident()}
        assert 0 < transport.dropped < sends
        assert transport.duplicated > 0
        expected = sends - transport.dropped + transport.duplicated
        assert inner.delivered == len(arrivals.index) == expected
        assert transport.delayed == expected  # every survivor was held
        assert arrivals.reordered()
        assert min(arrivals.age_ms) >= 9.0

    def test_same_plan_over_the_udp_bridge(self):
        sends = 400

        async def go():
            inner = AioUdpBridge(
                UdpTransport(base_port=28000, ports_per_node=16)
            )
            inner.attach()
            transport = shaper(inner)
            arrivals = Arrivals()
            transport.bind(DST, arrivals)
            await asyncio.sleep(0.05)  # receiver thread is up
            before = threading.active_count()
            peak = await send_and_drain(transport, sends, burst=40)
            expected = sends - transport.dropped + transport.duplicated
            deadline = time.monotonic() + 5.0
            while (
                len(arrivals.index) < expected
                and time.monotonic() < deadline
            ):
                await asyncio.sleep(0.01)
            transport.close()
            return transport, arrivals, before, peak, expected

        transport, arrivals, before, peak, expected = asyncio.run(go())
        assert peak == before
        assert arrivals.threads == {threading.get_ident()}
        assert transport.delayed == expected
        # Real datagrams: the kernel may shed a few under a burst.
        assert 0.9 * expected <= len(arrivals.index) <= expected
        assert arrivals.reordered()
        assert min(arrivals.age_ms) >= 9.0

    def test_close_with_packets_pending_delivers_none(self):
        async def go():
            loop = asyncio.get_running_loop()
            complaints = []
            loop.set_exception_handler(
                lambda _loop, context: complaints.append(context)
            )
            inner = AioLoopbackTransport()
            inner.attach()
            transport = shaper(inner, "delay:40; dup:0.5")
            received = []
            transport.bind(DST, lambda src, payload: received.append(payload))
            for i in range(200):
                transport.send(SRC, DST, i)
            armed = transport.pending
            transport.close()
            pending_after_close = transport.pending
            await asyncio.sleep(0.1)  # well past every deadline
            return armed, pending_after_close, received, complaints

        armed, pending_after_close, received, complaints = asyncio.run(go())
        assert armed >= 200
        assert pending_after_close == 0
        assert received == []
        assert complaints == []

    def test_off_loop_send_is_delivered_on_the_loop_thread(self):
        async def go():
            inner = AioLoopbackTransport()
            inner.attach()
            transport = shaper(inner, "delay:20")
            arrivals = Arrivals()
            transport.bind(DST, arrivals)
            senders = set()

            def produce():
                senders.add(threading.get_ident())
                for i in range(50):
                    transport.send(SRC, DST, (i, time.monotonic()))

            await asyncio.get_running_loop().run_in_executor(None, produce)
            assert transport.delayed == 50
            deadline = time.monotonic() + 5.0
            while len(arrivals.index) < 50 and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            transport.close()
            return transport, arrivals, senders

        transport, arrivals, senders = asyncio.run(go())
        assert senders.isdisjoint({threading.get_ident()})
        assert arrivals.threads == {threading.get_ident()}
        assert sorted(arrivals.index) == list(range(50))
        assert min(arrivals.age_ms) >= 19.0
        assert transport.pending == 0

    def test_stacked_shapers_share_the_inner_clock(self):
        async def go():
            inner = AioLoopbackTransport()
            inner.attach()
            transport = shaper(shaper(inner, "delay:10"), "delay:10")
            arrivals = Arrivals()
            transport.bind(DST, arrivals)
            transport.send(SRC, DST, (0, time.monotonic()))
            await asyncio.sleep(0.1)
            transport.close()
            return arrivals

        arrivals = asyncio.run(go())
        assert arrivals.index == [0]
        assert arrivals.age_ms[0] >= 19.0

    def test_send_on_a_down_transport_is_a_counted_drop(self):
        # Never attached: no loop to arm a timer on.
        inner = AioLoopbackTransport()
        transport = shaper(inner, "delay:20")
        transport.send(SRC, DST, "nowhere")
        assert (inner.dropped, transport.delayed, transport.pending) == (1, 0, 0)
        transport.close()
        # Attached to a loop that has since been closed.
        loop = asyncio.new_event_loop()
        inner = AioLoopbackTransport()
        inner.attach(loop)
        loop.close()
        transport = shaper(inner, "delay:20")
        transport.send(SRC, DST, "nowhere")
        assert (inner.dropped, transport.delayed, transport.pending) == (1, 0, 0)
        transport.close()


class TestShaperBookkeeping:
    def test_delayed_counts_only_packets_actually_armed(self):
        transport = shaper(InMemoryTransport(), "delay:500")
        transport.bind(DST, lambda src, payload: None)
        transport.send(SRC, DST, "armed")
        assert (transport.delayed, transport.pending) == (1, 1)
        transport.close()
        assert transport.pending == 0
        # A send that lost the race with close() reaches the delay line
        # after the flag is up: refused, so not counted as delayed.
        transport._send_later(500.0, SRC, DST, "refused")
        assert (transport.delayed, transport.pending) == (1, 0)

    def test_pending_falls_back_to_zero_as_timers_fire(self):
        # A zero-length wait lets the timer thread race the sender's
        # bookkeeping; nothing may be left behind in the pending set.
        transport = shaper(InMemoryTransport(), "delay:0~1")
        arrived = []
        transport.bind(DST, lambda src, payload: arrived.append(payload))
        for i in range(200):
            transport.send(SRC, DST, i)
        deadline = time.monotonic() + 5.0
        while len(arrived) < 200 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert len(arrived) == 200
        assert transport.pending == 0
        assert transport.counters() == {
            "blocked": 0, "dropped": 0, "duplicated": 0,
            "delayed": transport.delayed, "pending": 0,
        }
        transport.close()


class TestLiveFaultDriver:
    def test_crash_and_recover_flip_nodes(self):
        class FakeNode:
            def __init__(self):
                self.running = True
                self.events = []

            def stop(self):
                self.running = False
                self.events.append("stop")

            def start(self):
                self.running = True
                self.events.append("start")

        plan = FaultPlan.parse("crash@2-3:0.5")
        schedule = FaultSchedule(plan, n=4, num_alive_correct=4)
        nodes = {pid: FakeNode() for pid in range(4)}
        driver = LiveFaultDriver(
            schedule, nodes, round_duration_ms=50.0
        )
        driver.start()
        time.sleep(0.3)
        driver.stop()
        victims = schedule.crashed_at(2)
        assert victims == frozenset({2, 3})
        for pid in victims:
            assert nodes[pid].events == ["stop", "start"]
        for pid in set(range(4)) - victims:
            assert nodes[pid].events == []

    def test_stop_before_first_event_is_clean(self):
        plan = FaultPlan.parse("crash@1000:0.5")
        schedule = FaultSchedule(plan, n=4, num_alive_correct=4)
        driver = LiveFaultDriver(schedule, {}, round_duration_ms=1000.0)
        driver.start()
        driver.stop()


class TestLiveClusterHardening:
    def test_result_derives_sources_from_created_at(self):
        config = LiveClusterConfig(protocol="drum", n=6, round_duration_ms=80.0)
        cluster = LiveCluster(config, seed=1)
        cluster.start()
        try:
            mid = cluster.multicast(2, b"from-two")
            assert cluster.await_delivery(mid, fraction=1.0, timeout_s=10.0)
        finally:
            cluster.stop()
        result = cluster.result(1.0, 1)
        assert 2 not in result.correct_receivers
        assert 0 in result.correct_receivers

    def test_stop_is_idempotent(self):
        config = LiveClusterConfig(protocol="drum", n=4, round_duration_ms=50.0)
        cluster = LiveCluster(config, seed=2)
        cluster.start()
        cluster.stop()
        cluster.stop()  # no-op, no error
        for env in cluster.envs.values():
            assert env._closed

    def test_stop_is_exception_safe(self):
        config = LiveClusterConfig(protocol="drum", n=4, round_duration_ms=50.0)
        cluster = LiveCluster(config, seed=3)
        cluster.start()

        def bad_stop():
            raise OSError("stop exploded")

        cluster.nodes[2].stop = bad_stop
        with pytest.raises(OSError, match="stop exploded"):
            cluster.stop()
        # Cleanup still happened for everything else.
        for env in cluster.envs.values():
            assert env._closed
        cluster.stop()  # second call after the failure: no-op

    def test_node_death_surfaces_through_await_delivery(self):
        config = LiveClusterConfig(protocol="drum", n=4, round_duration_ms=50.0)
        cluster = LiveCluster(config, seed=4)

        def boom():
            raise ValueError("simulated node death")

        cluster.nodes[1]._round = boom
        cluster.start()
        try:
            mid = cluster.multicast(0, b"x")
            with pytest.raises(RuntimeError, match="node 1"):
                cluster.await_delivery(mid, fraction=1.0, timeout_s=5.0)
            assert cluster.node_errors
            assert cluster.node_errors[0][0] == 1
        finally:
            cluster.stop()

    def test_chaos_plan_on_live_stack(self):
        config = LiveClusterConfig(
            protocol="drum", n=8, round_duration_ms=100.0,
            faults="crash@2-5:0.2;partition@1-4:0.5;gilbert:0.02,0.3,0.05,0.3",
        )
        cluster = LiveCluster(config, seed=5)
        cluster.start()
        try:
            mid = cluster.multicast(0, b"chaos")
            delivered = cluster.await_delivery(
                mid, fraction=1.0, timeout_s=20.0
            )
        finally:
            cluster.stop()
        assert delivered
        assert cluster._fault_transport.blocked > 0
        result = cluster.result(1.0, 1)
        assert result.faults == config.faults.describe()
        assert result.residual_reliability() == 1.0

    def test_faults_spec_normalised_on_config(self):
        config = LiveClusterConfig(protocol="drum", n=8, faults="crash@2:0.2")
        assert isinstance(config.faults, FaultPlan)
        assert LiveClusterConfig(protocol="drum", n=8, faults="").faults is None
