"""Fault injection and hardening on the asyncio runtime.

These tests exercise a real event loop and wall-clock timers, so delays
and rounds are kept short (tens of milliseconds) and assertions are
about structure (counters, errors, lifecycle, which thread ran what)
rather than precise timing.
"""

import asyncio
import threading
import time

import pytest
from equivalence import wilson_ci

from repro.aio import AioCluster, AioClusterConfig
from repro.aio.env import LoopClock
from repro.aio.transport import AioLoopbackTransport, UdpTransport
from repro.faults import FaultPlan, FaultSchedule
from repro.faults.live import FaultyTransport, arm_flips, crash_flips
from repro.net import Address
from repro.util import SeedSequenceFactory

SHAPED = "loss:0.02; delay:20~10; reorder:0.2; dup:0.1"
SRC, DST = Address(0, 1), Address(1, 1)


def shaper(inner, spec=SHAPED, seed=3):
    return FaultyTransport(
        inner, FaultPlan.parse(spec), n=2, num_alive_correct=2,
        round_duration_ms=1000.0, seed=seed,
    )


def loopback():
    """A loopback transport on the running loop, with a clock of its own."""
    inner = AioLoopbackTransport()
    inner.attach()
    return inner


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


class TestFaultyTransport:
    def test_partition_blocks_member_traffic(self):
        async def go():
            plan = FaultPlan.parse("partition@1-100:0.5")
            transport = FaultyTransport(
                loopback(), plan, n=4, num_alive_correct=4,
                round_duration_ms=10_000.0,
            )
            received = []
            transport.bind(Address(3, 0), lambda s, p: received.append(p))
            transport.start_clock()
            transport.send(Address(0, 0), Address(3, 0), "cut")      # across
            transport.send(Address(2, 0), Address(3, 0), "same-side")
            transport.send(Address(10**6, 0), Address(3, 0), "flood")  # external
            await asyncio.sleep(0.01)
            transport.close()
            return transport.blocked, sorted(received)

        assert asyncio.run(go()) == (1, ["flood", "same-side"])

    def test_gilbert_loss_drops_packets(self):
        async def go():
            transport = shaper(loopback(), "loss:1.0", seed=1)
            received = []
            transport.bind(DST, lambda s, p: received.append(p))
            for _ in range(20):
                transport.send(SRC, DST, "x")
            await asyncio.sleep(0.01)
            transport.close()
            return transport.dropped, received

        assert asyncio.run(go()) == (20, [])

    def test_delay_defers_delivery(self):
        async def go():
            transport = shaper(loopback(), "delay:30", seed=1)
            arrivals = Arrivals()
            transport.bind(DST, arrivals)
            transport.send(SRC, DST, (0, time.monotonic()))
            await asyncio.sleep(0.01)
            early = list(arrivals.index)  # an undelayed hop has landed by now
            await asyncio.sleep(0.1)
            transport.close()
            return transport, early, arrivals

        transport, early, arrivals = asyncio.run(go())
        assert early == []
        assert arrivals.index == [0]
        assert arrivals.age_ms[0] >= 29.0
        assert transport.delayed == 1

    def test_duplication_delivers_twice(self):
        async def go():
            transport = shaper(loopback(), "dup:1.0", seed=1)
            received = []
            transport.bind(DST, lambda s, p: received.append(p))
            transport.send(SRC, DST, "twice")
            await asyncio.sleep(0.01)
            transport.close()
            return transport.duplicated, received

        assert asyncio.run(go()) == (1, ["twice", "twice"])

    def test_close_cancels_pending_timers(self):
        async def go():
            transport = shaper(loopback(), "delay:30", seed=1)
            received = []
            transport.bind(DST, lambda s, p: received.append(p))
            transport.send(SRC, DST, "never")
            transport.close()
            await asyncio.sleep(0.08)  # well past the deadline
            # Send after close is a silent no-op.
            transport.send(SRC, DST, "late")
            return transport.pending, received

        assert asyncio.run(go()) == (0, [])


@pytest.fixture
def no_timer_threads(monkeypatch):
    """Any ``threading.Timer`` the code under test starts is a failure."""

    def refuse(*args, **kwargs):
        raise AssertionError("the shaper started a threading.Timer")

    monkeypatch.setattr(threading, "Timer", refuse)


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
            inner = UdpTransport(base_port=28000, ports_per_node=16)
            inner.attach()
            transport = shaper(inner)
            arrivals = Arrivals()
            transport.bind(DST, arrivals)
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


class TestShaperStreams:
    def test_loss_and_timing_draw_independent_streams(self):
        # One seed feeds both generators through independent children:
        # a packet's jitter is no function of its loss draw.
        seed = SeedSequenceFactory(7).next_seed()
        faulty = shaper(AioLoopbackTransport(), "loss:0.02; delay:20~10", seed)
        ge, timing = faulty.loss._rng.random(4), faulty.rng.random(4)
        assert not (ge == timing).any()


class TestShaperBookkeeping:
    def test_delayed_counts_only_packets_actually_armed(self):
        async def go():
            transport = shaper(loopback(), "delay:500")
            transport.bind(DST, lambda src, payload: None)
            transport.send(SRC, DST, "armed")
            armed = (transport.delayed, transport.pending)
            transport.close()
            closed = transport.pending
            # A send that lost the race with close() reaches the delay
            # line after the flag is up: refused, so not counted as delayed.
            transport._send_later(500.0, SRC, DST, "refused")
            return armed, closed, (transport.delayed, transport.pending)

        assert asyncio.run(go()) == ((1, 1), 0, (1, 0))

    def test_pending_falls_back_to_zero_as_timers_fire(self):
        # Waits of zero (sent at once) and under a millisecond (armed):
        # nothing may be left behind in the pending set.
        async def go():
            transport = shaper(loopback(), "delay:0~1")
            arrived = []
            transport.bind(DST, lambda src, payload: arrived.append(payload))
            for i in range(200):
                transport.send(SRC, DST, i)
            deadline = time.monotonic() + 5.0
            while len(arrived) < 200 and time.monotonic() < deadline:
                await asyncio.sleep(0.005)
            counters = transport.counters()
            transport.close()
            return arrived, counters

        arrived, counters = asyncio.run(go())
        assert sorted(arrived) == list(range(200))
        assert 0 < counters["delayed"] < 200
        assert counters == {
            "blocked": 0, "dropped": 0, "duplicated": 0,
            "delayed": counters["delayed"], "pending": 0,
        }


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


class TestLiveFaultDriver:
    """A plan's crash windows, armed on the loop clock as node flips."""

    def test_crash_and_recover_flip_nodes(self):
        schedule = FaultSchedule(
            FaultPlan.parse("crash@2-3:0.5"), n=4, num_alive_correct=4
        )
        nodes = {pid: FakeNode() for pid in range(4)}

        async def go():
            clock = LoopClock(tick_ms=50.0 / 16)
            arm_flips(clock, schedule, nodes, 50.0, None)
            await asyncio.sleep(0.3)
            clock.close()

        asyncio.run(go())
        victims = schedule.crashed_at(2)
        assert victims == frozenset({2, 3})
        for pid in victims:
            assert nodes[pid].events == ["stop", "start"]
        for pid in set(range(4)) - victims:
            assert nodes[pid].events == []

    def test_stop_before_first_event_is_clean(self):
        schedule = FaultSchedule(
            FaultPlan.parse("crash@1000:0.5"), n=4, num_alive_correct=4
        )
        nodes = {pid: FakeNode() for pid in range(4)}

        async def go():
            clock = LoopClock()
            arm_flips(clock, schedule, nodes, 1000.0, None)
            clock.close()
            await asyncio.sleep(0.01)
            return clock.events_run

        assert asyncio.run(go()) == 0
        assert all(node.events == [] for node in nodes.values())

    def test_flips_on_one_boundary_keep_window_order(self):
        # The first window's recover and the second's crash share the
        # round-6 boundary: they fire in window order, as the DES heap
        # would fire them scheduled window by window.
        schedule = FaultSchedule(
            FaultPlan.parse("crash@3-6:0.25; crash@6:0.25"),
            n=9, num_alive_correct=9,
        )
        flips = crash_flips(schedule, 10.0)
        assert [(at, action) for at, action, _ in flips] == [
            (20.0, "crash"), (50.0, "recover"), (50.0, "crash"),
        ]
        assert flips[1][2] != flips[2][2]


def run_cluster(config, seed, body=None):
    """Start an :class:`AioCluster`, run ``body(cluster)``, always stop."""

    async def go():
        cluster = AioCluster(config, seed=seed)
        await cluster.start()
        try:
            if body is not None:
                await body(cluster)
        finally:
            await cluster.stop()
        return cluster

    return asyncio.run(go())


async def deliver_to_all(cluster, source, payload, timeout_s=10.0):
    mid = cluster.multicast(source, payload)
    assert await cluster.await_delivery(
        mid, fraction=1.0, timeout_s=timeout_s
    )


class TestLiveClusterHardening:
    """Lifecycle and fault hardening of the wall-clock cluster."""

    def test_result_derives_sources_from_created_at(self):
        config = AioClusterConfig(protocol="drum", n=6, round_duration_ms=80.0)
        cluster = run_cluster(
            config, 1, lambda c: deliver_to_all(c, 2, b"from-two")
        )
        result = cluster.result(1.0, 1)
        assert 2 not in result.correct_receivers
        assert 0 in result.correct_receivers

    def test_stop_is_idempotent(self):
        config = AioClusterConfig(protocol="drum", n=4, round_duration_ms=50.0)

        async def stop_twice(cluster):
            await cluster.stop()
            await cluster.stop()  # no-op, no error

        cluster = run_cluster(config, 2, stop_twice)
        for node in cluster.nodes.values():
            assert node.env._closed

    def test_stop_is_exception_safe(self):
        config = AioClusterConfig(protocol="drum", n=4, round_duration_ms=50.0)

        async def go():
            cluster = AioCluster(config, seed=3)
            await cluster.start()

            def bad_stop():
                raise OSError("stop exploded")

            cluster.nodes[2].stop = bad_stop
            with pytest.raises(OSError, match="stop exploded"):
                await cluster.stop()
            # Cleanup still happened for everything else.
            for node in cluster.nodes.values():
                assert node.env._closed
            assert cluster.transport._closed
            await cluster.stop()  # second call after the failure: no-op

        asyncio.run(go())

    def test_node_death_surfaces_through_await_delivery(self):
        config = AioClusterConfig(protocol="drum", n=4, round_duration_ms=50.0)

        def boom():
            raise ValueError("simulated node death")

        async def kill_node_one(cluster):
            # The first round is already on the clock; the next one raises.
            cluster.nodes[1]._round = boom
            await asyncio.sleep(0.15)
            mid = cluster.multicast(0, b"x")
            with pytest.raises(RuntimeError, match="node 1"):
                await cluster.await_delivery(mid, fraction=1.0, timeout_s=5.0)

        cluster = run_cluster(config, 4, kill_node_one)
        assert cluster.node_errors
        assert cluster.node_errors[0][0] == 1
        assert isinstance(cluster.node_errors[0][1], ValueError)

    def test_a_crashed_or_unknown_pid_multicasts_nothing(self):
        # As on the DES: a send from a down process is lost, not minted
        # and gossiped once the process recovers.
        config = AioClusterConfig(
            n=8, round_duration_ms=50.0, faults="crash@1-1000:0.25"
        )

        async def body(cluster):
            await asyncio.sleep(0.12)
            assert not cluster.nodes[6].running
            assert cluster.multicast(6, b"from-a-crashed-pid") is None
            assert cluster.multicast(99, b"from-no-member") is None
            assert cluster.multicast(0, b"from-a-live-pid") == (0, 0)

        cluster = run_cluster(config, 1, body)
        assert set(cluster.log.created_at) == {(0, 0)}
        assert all(d.msg_id == (0, 0) for d in cluster.log.deliveries)

    def test_chaos_plan_on_live_stack(self):
        config = AioClusterConfig(
            protocol="drum", n=8, round_duration_ms=100.0,
            faults="crash@2-5:0.2;partition@1-4:0.5;gilbert:0.02,0.3,0.05,0.3",
        )
        cluster = run_cluster(
            config, 5,
            lambda c: deliver_to_all(c, 0, b"chaos", timeout_s=20.0),
        )
        assert cluster.shaper.blocked > 0
        result = cluster.result(1.0, 1)
        assert result.faults == config.faults.describe()
        assert result.residual_reliability() == 1.0

    @pytest.mark.parametrize("installed", ["configured", "injected"])
    def test_plan_loss_replaces_the_scalar_loss(self, installed):
        # As on the DES, exact and fast engines: with loss=0.01 and a
        # plan's loss:0.02 a datagram is lost w.p. 0.02, not ≈ 0.0298.
        sends, sink = 20_000, Address(10**6, 7)
        config = AioClusterConfig(
            protocol="drum", n=2, loss=0.01, round_duration_ms=10_000.0,
            faults="loss:0.02" if installed == "configured" else None,
        )
        received = []

        async def body(cluster):
            for node in cluster.nodes.values():
                node.stop()  # only the counted datagrams cross the shaper
            if installed == "injected":
                assert cluster.transport.loss.loss_probability == 0.01
                cluster.inject_faults("loss:0.02")
            assert not hasattr(cluster.shaper.inner, "loss")
            cluster.transport.bind(sink, lambda src, p: received.append(p))
            for i in range(sends):
                cluster.transport.send(SRC, sink, i)
            cluster.clock.catch_up()

        cluster = run_cluster(config, 17, body)
        lost = sends - len(received)
        lo, hi = wilson_ci(lost, sends)
        assert lo <= 0.02 <= hi
        assert hi < 0.01 + 0.02 - 0.01 * 0.02  # compounding is excluded
        assert cluster.shaper.dropped == lost  # every loss is the plan's

    def test_faults_spec_normalised_on_config(self):
        config = AioClusterConfig(protocol="drum", n=8, faults="crash@2:0.2")
        assert isinstance(config.faults, FaultPlan)
        assert AioClusterConfig(protocol="drum", n=8, faults="").faults is None
