"""The cluster's one clock (`repro.aio.env.LoopClock`).

Most tests here run on :class:`FakeTimeLoop`, an asyncio loop whose
clock jumps instead of sleeping: the pump's arming, ordering and
lateness are then exact statements, not timings on a shared box.
"""

import asyncio
import json
import math

import pytest
from conftest import sim_env
from hypothesis import given, settings, strategies as st
from test_des_golden import SHAPED, closures

from repro.adversary import AttackSpec
from repro.aio import AioCluster, AioClusterConfig, LoopClock
from repro.aio.transport import AioLoopbackTransport, UdpTransport
from repro.des.engine import EventLoop
from repro.des.environment import Environment
from repro.faults import FaultPlan
from repro.faults.live import FaultyTransport
from repro.net import Address
from repro.obs import MemorySink, Tracer
from repro.obs.sinks import encode_event


class FakeTimeLoop(asyncio.SelectorEventLoop):
    """Virtual time: a ``select`` that would sleep advances the clock."""

    def __init__(self):
        super().__init__()
        self.fake_s = 0.0
        select = self._selector.select

        def jump(timeout=None):
            if timeout:
                # Land on the timer itself, not on a float sum: virtual
                # time then does not depend on the timers passed on the
                # way (byte-identical runs across tick sizes).
                self.fake_s = self._scheduled[0].when()
            return select(0)

        self._selector.select = jump

    def time(self):
        return self.fake_s

    def burn(self, ms):
        """A callback that held the CPU for ``ms``."""
        self.fake_s += ms / 1000.0


def run_fake(main):
    """Run ``main(loop)`` to completion on a fresh :class:`FakeTimeLoop`."""
    loop = FakeTimeLoop()
    try:
        return loop.run_until_complete(main(loop))
    finally:
        loop.close()


def watch_arming(loop):
    """Record every timer the loop is asked for.

    Returns ``(arms, others)``: ``arms[0]`` counts pump handles (and
    trips if a second one is armed while the first is live), ``arms[1]``
    those armed for a future time, so a sleep; ``others`` names the
    callbacks of every timer that is not the pump.
    """
    arms, others, live = [0, 0], set(), []
    real_call_at = loop.call_at

    def call_at(when, callback, *args, **kwargs):
        if getattr(callback, "__func__", None) is not LoopClock._pump:
            others.add(getattr(callback, "__qualname__", repr(callback)))
            return real_call_at(when, callback, *args, **kwargs)
        assert all(h.cancelled() for h in live), "two pump handles armed"

        def pump():
            live.clear()
            callback()

        arms[0] += 1
        arms[1] += when > loop.time()
        live[:] = [real_call_at(when, pump)]
        return live[0]

    loop.call_at = call_at
    return arms, others


# -- (a) the pumped clock is the event loop, late by at most a tick ---------

# One scripted event: (delay ms, burn ms, label to cancel or None, children).
_leaf = st.tuples(
    st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
    st.sampled_from([0.0, 0.0, 0.0, 2.5, 9.0]),
    st.one_of(st.none(), st.integers(0, 40)),
    st.just(()),
)
_events = st.recursive(
    _leaf,
    lambda inner: st.tuples(
        st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
        st.sampled_from([0.0, 0.0, 2.5]),
        st.one_of(st.none(), st.integers(0, 40)),
        st.lists(inner, max_size=4).map(tuple),
    ),
    max_leaves=25,
)


def play(clock, script, burn, fired):
    """Schedule ``script`` from inside one root event of ``clock``."""
    handles = {}
    labels = iter(range(10**6))

    def arm(event):
        delay, burn_ms, cancels, children = event
        label = next(labels)

        def fire():
            fired.append((label, clock.now, burn()))
            burn(burn_ms)
            if cancels in handles:
                handles[cancels].cancel()
            for child in children:
                arm(child)

        handles[label] = clock.schedule(delay, fire)

    clock.schedule(0.0, lambda: [arm(event) for event in script])


@settings(max_examples=60, deadline=None)
@given(
    script=st.lists(_events, min_size=1, max_size=6),
    tick=st.sampled_from([0.0, 0.5, 3.90625, 7.3]),
)
def test_pumped_clock_fires_what_the_event_loop_fires(script, tick):
    reference = []
    loop_ref = EventLoop()
    play(loop_ref, script, lambda ms=0.0: 0.0, reference)
    loop_ref.run_until_idle()

    async def main(loop):
        arms, _ = watch_arming(loop)
        clock = LoopClock(tick_ms=tick)
        burned = [0.0]

        def burn(ms=0.0):
            """Hold the CPU for ``ms``; returns (wall, burned so far)."""
            loop.burn(ms)
            burned[0] += ms
            return clock._wall(), burned[0] - ms

        fired = []
        play(clock, script, burn, fired)
        root_due = clock._queue[0][0]
        while clock.pending():
            await asyncio.sleep(0.05)
        assert clock.wakes == arms[0]  # scheduling inside a pass never re-arms
        return root_due, fired

    root_due, fired = run_fake(main)
    assert [label for label, _, _ in fired] == [
        label for label, _, _ in reference
    ]
    for (_, due, (wall, burned)), (_, ref_due, _) in zip(fired, reference):
        assert due - root_due == pytest.approx(ref_due, abs=1e-6)
        assert wall >= due - 1e-6  # never early (to the loop's ns)
        assert wall - due <= tick + burned + 1e-6


# -- (b) errors, close, re-arming -------------------------------------------


class TestPump:
    def test_a_raising_callback_stops_neither_the_pass_nor_the_rearm(self):
        async def main(loop):
            complaints = []
            loop.set_exception_handler(
                lambda _loop, context: complaints.append(context["exception"])
            )
            clock = LoopClock(tick_ms=4.0)
            ran = []
            clock.schedule(1.0, lambda: 1 / 0)
            clock.schedule(2.0, ran.append, "same pass")
            clock.schedule(9.0, ran.append, "next pass")
            await asyncio.sleep(0.02)
            return clock, ran, complaints

        clock, ran, complaints = run_fake(main)
        assert ran == ["same pass", "next pass"]
        assert [type(exc) for exc in complaints] == [ZeroDivisionError]
        assert clock.wakes == 2

    def test_close_cancels_what_is_pending_and_never_wakes_again(self):
        async def main(loop):
            arms, _ = watch_arming(loop)
            clock = LoopClock(tick_ms=4.0)
            ran = []
            clock.schedule(5.0, ran.append, "pending")
            clock.close()
            clock.schedule(1.0, ran.append, "after close")
            await asyncio.sleep(0.05)
            return clock, ran, arms[0]

        clock, ran, arms = run_fake(main)
        assert (ran, clock.wakes, arms) == ([], 0, 1)

    def test_a_closed_clock_refuses_events_instead_of_queueing_them(self):
        """Nobody pumps a closed clock, so a late hop or a restarted node
        would otherwise grow its heap for ever."""

        async def main(loop):
            cluster = AioCluster(AioClusterConfig(n=4), seed=3)
            await cluster.start()
            await cluster.stop()
            clock = cluster.clock
            handle = clock.schedule(1.0, lambda: None)
            cluster.nodes[1].start()  # restarted on a stopped cluster
            return clock, handle

        clock, handle = run_fake(main)
        assert handle.cancelled
        assert clock.pending() == 0
        assert clock.stats()["refused"] >= 2

    def test_a_post_after_close_is_refused_and_counted(self):
        """The handle-free path refuses like ``schedule``: from a callback
        that closed the clock mid-pass, and from outside a pass."""

        async def main(loop):
            clock = LoopClock(tick_ms=0.0)
            ran, queued = [], []

            def close_then_post():
                clock.close()
                queued.append(clock.post(0.0, ran.append, "mid-pass"))

            clock.post(1.0, close_then_post)
            await asyncio.sleep(0.01)
            queued.append(clock.post(1.0, ran.append, "outside"))
            await asyncio.sleep(0.01)
            return clock, ran, queued

        clock, ran, queued = run_fake(main)
        assert (ran, queued, clock.pending()) == ([], [False, False], 0)
        assert clock.stats()["refused"] == 2

    def test_a_hop_on_a_closed_clock_is_a_counted_drop(self):
        async def main(loop):
            inner = AioLoopbackTransport()
            inner.attach()
            link = FaultyTransport(
                inner, FaultPlan.parse("delay:5"), n=2, num_alive_correct=2,
                round_duration_ms=100.0, seed=1,
            )
            link.bind(Address(1, 1), lambda src, payload: None)
            inner.clock.close()
            link.send(Address(0, 1), Address(1, 1), "late")
            return inner, link

        inner, link = run_fake(main)
        assert (inner.dropped, link.pending, link.delayed) == (1, 0, 0)
        assert inner.clock.refused == 1

    def test_an_earlier_event_rearms_a_later_one_does_not(self):
        async def main(loop):
            arms, _ = watch_arming(loop)
            clock = LoopClock(tick_ms=4.0)
            fired = []

            def note(name):
                fired.append((name, loop.time() * 1000.0))

            clock.schedule(50.0, note, "late")
            clock.schedule(51.0, note, "same tick")
            assert arms[0] == 1
            clock.schedule(10.0, note, "early")
            assert arms[0] == 2
            await asyncio.sleep(0.1)
            return clock, fired

        clock, fired = run_fake(main)
        assert [name for name, _ in fired] == ["early", "late", "same tick"]
        # Each at the first tick boundary at or after its due time.
        assert [at for _, at in fired] == pytest.approx([12.0, 52.0, 52.0])
        assert clock.wakes == 2
        assert clock.stats() == {
            "tick_ms": 4.0,
            "wakes": 2,
            "events": 3,
            "late_ms_max": pytest.approx(2.0),
            "refused": 0,
        }

    def test_delays_chain_off_due_times_not_off_the_wall(self):
        """Tick and burn lateness does not add up over hops."""

        async def main(loop):
            clock = LoopClock(tick_ms=4.0)
            dues = []

            def hop(left):
                dues.append(clock.now)
                loop.burn(3.0)
                if left:
                    clock.schedule(5.0, hop, left - 1)

            clock.schedule(5.0, hop, 20)
            await asyncio.sleep(0.5)
            outside = clock.now
            return dues, outside, loop.time() * 1000.0

        dues, outside, wall = run_fake(main)
        assert dues == pytest.approx([5.0 * (i + 1) for i in range(21)])
        assert outside == pytest.approx(wall)  # outside a pass: the wall

    def test_an_untied_transport_coalesces_nothing(self):
        async def main(loop):
            transport = AioLoopbackTransport()
            transport.attach()
            at = []
            transport.call_later(0.0101, lambda: at.append(loop.time()))
            transport.call_later(0.0102, lambda: at.append(loop.time()))
            await asyncio.sleep(0.05)
            return transport.clock, at

        clock, at = run_fake(main)
        assert at == pytest.approx([0.0101, 0.0102], abs=1e-9)
        assert (clock.tick_ms, clock.wakes) == (0.0, 2)


@pytest.mark.parametrize("delay_ms", [-1.0, -1e-9, math.nan])
def test_negative_or_nan_delay_raises_on_both_continuous_stacks(delay_ms):
    sim = sim_env()
    with pytest.raises(ValueError, match="delay_ms"):
        sim.schedule(delay_ms, lambda: None)

    async def main(loop):
        env = Environment(AioLoopbackTransport(), clock=LoopClock())
        with pytest.raises(ValueError, match="delay_ms"):
            env.schedule(delay_ms, lambda: None)
        return env.clock.pending()

    assert run_fake(main) == 0


@pytest.mark.parametrize("delay_ms", [-1.0, math.nan])
def test_negative_or_nan_delay_raises_on_every_post_path(delay_ms):
    sim = sim_env()
    with pytest.raises(ValueError, match="delay_ms"):
        sim.post(delay_ms, print)
    sim.clock.post(1.0, sim.clock.post, delay_ms, print)  # inside a pass
    with pytest.raises(ValueError, match="delay_ms"):
        sim.clock.run_until(2.0)

    async def main(loop):
        errors = []
        loop.set_exception_handler(
            lambda _loop, context: errors.append(context["exception"])
        )
        env = Environment(
            AioLoopbackTransport(), clock=LoopClock(), on_error=errors.append
        )
        with pytest.raises(ValueError, match="delay_ms"):
            env.post(delay_ms, print)
        env.clock.post(1.0, env.clock.post, delay_ms, print)
        await asyncio.sleep(0.01)
        return errors, env.clock.pending()

    errors, pending = run_fake(main)
    assert [type(exc) for exc in errors] == [ValueError]
    assert pending == 0


# -- (c) outside entries catch the clock up ---------------------------------


def _entries():
    """Every way into a running cluster from outside the clock."""
    return {
        "multicast": lambda cluster: cluster.multicast(0, b"entry"),
        "inject_faults": lambda cluster: cluster.inject_faults("delay:5"),
        "inject_attack": lambda cluster: cluster.inject_attack(
            AttackSpec(alpha=0.25, x=4.0)
        ),
        "delivered_counts": lambda cluster: cluster.delivered_counts(),
    }


async def _bracket_an_entry(enter):
    """Two events 0.1 ms either side of an outside entry that lands
    between two ticks; returns what had fired before and after it."""
    cluster = AioCluster(AioClusterConfig(n=4, round_duration_ms=160.0), seed=5)
    await cluster.start()
    clock, fired = cluster.clock, []
    t0 = clock.now
    clock.schedule(104.9, fired.append, "before")
    clock.schedule(105.1, fired.append, "after")
    await asyncio.sleep(0.105)
    assert clock.now - t0 == pytest.approx(105.0)
    assert clock.tick_ms == 10.0  # "before" waits for the 110 ms pump
    seen = list(fired)
    await enter(cluster)
    entered = list(fired)
    await asyncio.sleep(0.05)
    await cluster.stop()
    return seen, entered, fired


@pytest.mark.parametrize("entry", sorted(_entries()))
def test_an_entry_between_ticks_finds_exactly_the_past_fired(entry):
    async def enter(cluster):
        _entries()[entry](cluster)

    seen, entered, fired = run_fake(lambda loop: _bracket_an_entry(enter))
    assert seen == []
    assert entered == ["before"]
    assert fired == ["before", "after"]


def test_stop_fires_what_was_due_and_drops_only_later_events():
    async def enter(cluster):
        await cluster.stop()

    seen, entered, fired = run_fake(lambda loop: _bracket_an_entry(enter))
    assert (seen, entered, fired) == ([], ["before"], ["before"])


# -- (d) the tick is invisible ----------------------------------------------


def _traced_run(monkeypatch, per_round=None):
    """One seeded fake-time run, on the loopback's own clock or with
    ``per_round`` ticks and wakes; returns (delivery log, trace, clock)."""
    if per_round is not None:
        for name in ("_TICKS_PER_ROUND", "_WAKES_PER_ROUND"):
            monkeypatch.setattr(AioLoopbackTransport, name, per_round)
    config = AioClusterConfig(
        n=12, round_duration_ms=100.0, loss=0.01,
        faults="delay:8~4; dup:0.1; loss:0.05; crash@2-4:0.2; "
        "partition@5-8:0.4",
        attack=AttackSpec(alpha=0.2, x=16.0),
    )
    sink = MemorySink()

    async def main(loop):
        cluster = AioCluster(config, seed=41, tracer=Tracer(sink))
        await cluster.start()
        for i in range(3):
            cluster.multicast(0, b"m%d" % i)
            await asyncio.sleep(0.0371)  # between ticks of either size
        await asyncio.sleep(1.2)
        await cluster.stop()
        return cluster

    cluster = run_fake(main)
    log = [
        (d.receiver, d.msg_id, d.delivered_at_ms, d.latency_ms,
         d.round_counter)
        for d in cluster.log.deliveries
    ]
    return log, [encode_event(e) for e in sink.events], cluster.clock


def test_the_tick_moves_no_stamp_and_no_event(monkeypatch):
    coarse_log, coarse_trace, coarse = _traced_run(monkeypatch)
    fine_log, fine_trace, fine = _traced_run(monkeypatch, 128)
    assert (coarse.wake_ms, coarse.tick_ms) == (100.0 / 4, 100.0 / 16)
    assert (fine.wake_ms, fine.tick_ms) == (100.0 / 128, 100.0 / 128)
    assert coarse.wakes < fine.wakes
    kinds = {json.loads(line)["ev"] for line in coarse_trace}
    assert {"delivered", "dropped", "crash", "heal"} <= kinds
    assert len(coarse_log) > 12
    assert coarse_log == fine_log
    assert coarse_trace == fine_trace


# -- (e) one heap event per shaped datagram ---------------------------------


def test_a_shaped_datagram_costs_one_heap_event():
    sends = 40

    async def main(loop):
        inner = AioLoopbackTransport()
        inner.attach()
        shaper = FaultyTransport(
            inner, FaultPlan.parse("delay:5~2"), n=2, num_alive_correct=2,
            round_duration_ms=100.0, seed=1,
        )
        got = []
        shaper.bind(Address(1, 1), lambda src, payload: got.append(payload))
        before = inner.clock.events_run
        for i in range(sends):
            shaper.send(Address(0, 1), Address(1, 1), i)
        await asyncio.sleep(0.05)
        return inner.clock.events_run - before, got, shaper, inner

    events, got, shaper, inner = run_fake(main)
    assert sorted(got) == list(range(sends))
    assert (shaper.delayed, shaper.pending, inner.delivered) == (sends, 0, sends)
    assert events == sends


def test_a_hop_posted_from_outside_a_pass_arms_the_loop():
    """With no tick and nothing else queued, only the post's own arming
    wakes the loop: a datagram sent from a coroutine lands on its due
    time, not at the next unrelated wake-up."""

    async def main(loop):
        clock = LoopClock(tick_ms=0.0)
        inner = AioLoopbackTransport()
        inner.attach(loop, clock)
        link = FaultyTransport(
            inner, FaultPlan.parse("delay:5"), n=2, num_alive_correct=2,
            round_duration_ms=100.0, seed=1,
        )
        got = []
        link.bind(
            Address(1, 1), lambda src, payload: got.append((payload, loop.time()))
        )
        sent = loop.time()
        link.send(Address(0, 1), Address(1, 1), "hop")
        await asyncio.sleep(0.05)
        return got, sent, clock.wakes

    got, sent, wakes = run_fake(main)
    assert got == [("hop", pytest.approx(sent + 0.005))]
    assert wakes == 1


def test_a_shaped_attacked_cluster_queues_no_closure():
    """Mid-run, every heap entry is a bound callable and its arguments."""
    config = AioClusterConfig(
        n=12, round_duration_ms=100.0, loss=0.01, faults=SHAPED,
        attack=AttackSpec(alpha=0.2, x=64.0),
    )

    async def main(loop):
        cluster = AioCluster(config, seed=37)
        await cluster.start()
        cluster.multicast(0, b"hop")
        await asyncio.sleep(0.45)
        queue = list(cluster.clock._queue)
        await cluster.stop()
        return queue

    queue = run_fake(main)
    queued = {
        fn.__qualname__
        for _, _, _, callback, args in queue
        for fn in (callback, *args[:1])
        if callable(fn)
    }
    # Held datagrams, the flood's scheduled sends, node timers.
    assert {
        "FaultyTransport._arrive", "FaultyTransport.send", "GossipNode._round",
    } <= queued
    assert closures(queue) == set()


# -- (f) the wake-up tripwire -----------------------------------------------


def _tripwire_run(monkeypatch, transport=None):
    rounds = 12
    config = AioClusterConfig(
        n=12, round_duration_ms=100.0, loss=0.0,
        faults="delay:8~4; dup:0.1; crash@3-6:0.2",
        attack=AttackSpec(alpha=0.2, x=16.0),
    )
    #: Event time each sliced pass covers past its earliest event (a
    #: catch-up while the pump is not overdue runs whole, to the wall).
    spans = []
    real_pass = LoopClock._pass

    def timed_pass(clock, horizon, whole=False):
        first = clock._queue[0][0]
        real_pass(clock, horizon, whole)
        if not whole:
            spans.append(clock._now - first)  # where run_until stopped

    monkeypatch.setattr(LoopClock, "_pass", timed_pass)

    async def main(loop):
        arms, others = watch_arming(loop)
        cluster = AioCluster(config, seed=31, transport=transport)
        await cluster.start()
        mid = cluster.multicast(0, b"tick")
        await asyncio.sleep(rounds * config.round_duration_ms / 1000.0)
        stats = cluster.clock.stats()
        delivered = cluster.delivered_counts()[mid]
        await cluster.stop()
        return stats, arms, others, delivered, cluster

    return (rounds, config, spans) + run_fake(main)


def test_a_cluster_wakes_at_most_once_per_tick_on_one_handle(monkeypatch):
    """Deterministic: counted on virtual time, not timed.

    With flips, shaped packets and a flood all riding the clock, the
    only timers the loop ever sees are the pump (one at a time) and the
    test's own sleeps.  On loopback the loop sleeps to quarter rounds
    and a pass covers at most a tick, 1/16 round, of event time.
    """
    rounds, config, spans, stats, arms, others, delivered, cluster = (
        _tripwire_run(monkeypatch)
    )
    wake_ms = cluster.clock.wake_ms
    assert wake_ms == config.round_duration_ms / 4
    assert stats["tick_ms"] == config.round_duration_ms / 16
    assert arms[1] <= 4 * rounds + 8  # sleeps
    assert stats["wakes"] <= 16 * rounds + 8
    assert stats["events"] > 2 * stats["wakes"]  # it does coalesce
    assert stats["wakes"] <= arms[0] <= stats["wakes"] + 8 + 2 * config.n
    assert len(spans) >= stats["wakes"]
    assert max(spans) <= stats["tick_ms"] + 1e-6
    assert others <= {"_set_result_unless_cancelled"}
    assert delivered >= 8 and not cluster.node_errors
    # Virtual time has no lag: nothing fired more than a wake late.
    assert stats["late_ms_max"] <= wake_ms + 1e-6


def test_the_udp_bridge_keeps_the_fine_tick(monkeypatch):
    """A datagram leaves at the wall time of its pass, so over real
    sockets the tick is latency on every hop: 1/128 round, for the wake
    and the pass alike."""
    rounds, config, _, stats, arms, others, _, cluster = _tripwire_run(
        monkeypatch, UdpTransport(base_port=28800, ports_per_node=16)
    )
    assert stats["tick_ms"] == config.round_duration_ms / 128
    assert cluster.clock.wake_ms == stats["tick_ms"]
    assert 0 < stats["wakes"] <= 128 * rounds + 8
    assert others <= {"_set_result_unless_cancelled"}


# -- (g) a delivery wait is woken, not polled ------------------------------


def _await(body):
    """Run ``body(cluster, loop)`` on a started fake-time cluster, with
    the loop's timers watched; returns (body's result, others, cluster)."""

    async def main(loop):
        _, others = watch_arming(loop)
        config = AioClusterConfig(n=8, round_duration_ms=100.0)
        cluster = AioCluster(config, seed=9)
        await cluster.start()
        try:
            return await body(cluster, loop), others, cluster
        finally:
            await cluster.stop()

    return run_fake(main)


def test_a_delivery_wait_ends_on_the_pass_that_crosses_and_arms_nothing():
    async def body(cluster, loop):
        crossed = []
        record = cluster._record

        def spy(pid, message, now_ms):
            record(pid, message, now_ms)
            got = cluster.log.receivers.get(message.msg_id, ())
            if len(got) == 6 and not crossed:
                crossed.append((loop.time(), cluster.clock.wakes))

        for node in cluster.nodes.values():
            node.on_deliver = spy
        mid = cluster.multicast(0, b"wait")
        ok = await cluster.await_delivery(mid, fraction=0.75, timeout_s=5.0)
        return ok, crossed, (loop.time(), cluster.clock.wakes)

    (ok, crossed, returned), others, cluster = _await(body)
    assert ok is True
    assert crossed == [returned]  # same instant, no pass in between
    assert others == set()  # no poll, no timeout timer: only the pump
    assert cluster._waiters == []


def test_a_delivery_wait_times_out_on_the_clock():
    async def body(cluster, loop):
        started = loop.time()
        ok = await cluster.await_delivery((7, 7), timeout_s=0.3)
        return ok, loop.time() - started

    (ok, waited), others, cluster = _await(body)
    assert ok is False
    assert 0.3 <= waited <= 0.3 + cluster.clock.wake_ms / 1000.0 + 1e-9
    assert others == set()
    assert cluster._waiters == []


def test_a_node_error_ends_a_delivery_wait_on_its_own_pass():
    def boom():
        raise ValueError("simulated node death")

    async def body(cluster, loop):
        cluster.nodes[1]._round = boom  # its second round raises
        with pytest.raises(RuntimeError, match="node 1"):
            await cluster.await_delivery((7, 7), timeout_s=5.0)
        return loop.time()

    raised_at, others, cluster = _await(body)
    (pid, exc), = cluster.node_errors
    assert (pid, type(exc)) == (1, ValueError)
    # Two rounds in at most, not the 5 s timeout.
    assert raised_at <= 0.2 + cluster.clock.wake_ms / 1000.0
    assert others == set()


def test_a_stop_ends_a_delivery_wait():
    async def body(cluster, loop):
        waiting = asyncio.ensure_future(
            cluster.await_delivery((7, 7), timeout_s=60.0)
        )
        await asyncio.sleep(0)
        await cluster.stop()
        return await waiting, loop.time()

    (ok, at), _, cluster = _await(body)
    assert ok is False and at < 1.0
    assert cluster._waiters == []


# -- (h) the chaos plan on the asyncio stack --------------------------------

CHAOS = "crash@5:0.1;partition@8-15:0.4;gilbert:0.01,0.3,0.05,0.25"


def test_chaos_plan_on_the_aio_stack():
    """The plan every other stack runs, at n = 30 on virtual time:
    partition drops stamped inside the plan's windows, residual
    reliability over reachable receivers, and a reconciled trace."""
    config = AioClusterConfig(
        n=30, round_duration_ms=100.0, loss=0.01, faults=CHAOS,
    )
    sink = MemorySink()
    tracer = Tracer(sink)

    async def main(loop):
        cluster = AioCluster(config, seed=2024, tracer=tracer)
        await cluster.start()
        for i in range(20):
            last = cluster.multicast(0, b"chaos-%d" % i)
            await asyncio.sleep(0.1)
        await cluster.await_delivery(last, fraction=0.5, timeout_s=5.0)
        await asyncio.sleep(2.5)
        await cluster.stop()
        return cluster

    cluster = run_fake(main)
    result = cluster.result(10.0, 20)
    round_ms = config.round_duration_ms
    crashed = set(range(27, 30))  # crash@5:0.1 takes the top three ids
    assert result.reachable_receivers == list(range(1, 27))
    crashes = [e for e in sink.events if e["ev"] == "crash"]
    assert [(e["nodes"], e["t"]) for e in crashes] == [
        (sorted(crashed), pytest.approx(4 * round_ms))
    ]
    cuts = [
        e for e in sink.events
        if e["ev"] == "dropped" and e["reason"] == "partition"
    ]
    in_window = [e for e in cuts if 7 * round_ms <= e["t"] < 14 * round_ms]
    assert any(e["node"] not in crashed for e in in_window)
    for event in cuts:
        # Outside the partition only the crashed machines are cut off.
        assert event["t"] >= 4 * round_ms
        assert event in in_window or event["node"] in crashed
    assert result.residual_reliability() >= 0.95
    assert tracer.counters.reconcile_measurement(result) == []
    assert not cluster.node_errors
