"""The asyncio cluster runtime (`repro.aio`)."""

import asyncio
import dataclasses
import threading
import time

import pytest

from repro.adversary import AttackSpec
from repro.aio import AioCluster, AioClusterConfig, run_aio_experiment
from repro.aio.transport import AioLoopbackTransport, UdpTransport
from repro.api import Experiment, result_from_dict
from repro.des.cluster import ClusterConfig, GroupConfig, _Cluster
from repro.des.measurement import MeasurementResult
from repro.net import Address
from repro.obs import MemorySink, Tracer

# Small, quick wall-clock settings shared by most tests.
QUICK = dict(round_duration_ms=60.0, send_rate=100.0, messages=3)


class TestAioClusterConfig:
    def test_layout_mirrors_cluster_config(self):
        cfg = AioClusterConfig(n=40, malicious_fraction=0.1)
        assert cfg.num_malicious == 4
        assert cfg.num_correct == 36
        assert cfg.source == 0
        assert cfg.source not in cfg.receiver_ids()
        assert len(cfg.receiver_ids()) == 35

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            AioClusterConfig(n=8, transport="carrier-pigeon")

    def test_churn_tokens_accepted(self):
        config = AioClusterConfig(n=16, faults="join@3:0.2")
        assert config.faults.has_churn

    def test_group_size_ceiling_enforced(self):
        from repro.api.engines import AIO_MAX_N

        with pytest.raises(ValueError, match="group-size limit"):
            AioClusterConfig(n=AIO_MAX_N + 1)

    def test_attack_too_wide_rejected(self):
        with pytest.raises(ValueError, match="attack targets"):
            AioClusterConfig(
                n=10, malicious_fraction=0.5,
                attack=AttackSpec(alpha=0.9, x=8),
            )

    def test_empty_fault_plan_normalised_to_none(self):
        assert AioClusterConfig(n=8, faults="none").faults is None


class TestRunAioExperiment:
    def test_stream_delivers_and_packages_measurement(self):
        result = run_aio_experiment(
            AioClusterConfig(n=12, **QUICK), seed=1
        )
        assert isinstance(result, MeasurementResult)
        assert result.n == 12
        assert result.messages_sent == 3
        assert result.deliveries
        # Every receiver is correct, so a quiet loopback run delivers
        # the stream essentially everywhere.
        assert result.residual_reliability() > 0.5

    def test_envelope_round_trips(self):
        result = run_aio_experiment(
            AioClusterConfig(n=8, **QUICK), seed=2
        )
        env = result.to_dict()
        assert env["schema"] == "repro.result"
        clone = result_from_dict(env)
        assert clone.to_dict() == env

    def test_experiment_dispatches_through_registry(self):
        result = Experiment(
            n=10, loss=0.0, round_duration_ms=60.0,
            send_rate=100.0, messages=3,
        ).run("aio", seed=3)
        assert isinstance(result, MeasurementResult)
        assert result.deliveries

    def test_tracer_events_reconcile_with_measurement(self):
        sink = MemorySink()
        tracer = Tracer(sink, thread_safe=True)
        result = run_aio_experiment(
            AioClusterConfig(n=10, **QUICK), seed=4, tracer=tracer
        )
        assert tracer.counters.reconcile_measurement(result) == []
        events = sink.events
        starts = [e for e in events if e["ev"] == "run_start"]
        assert len(starts) == 1
        assert starts[0]["engine"] == "aio"
        assert starts[0]["protocol"] == "drum"
        assert starts[0]["n"] == 10
        delivered = [e for e in events if e["ev"] == "delivered"]
        assert delivered
        # Continuous-time stack: wall-clock t stamps, no round context.
        assert all("t" in e for e in delivered)
        assert all("round" not in e for e in delivered)

    def test_crash_faults_limit_reachable_set(self):
        sink = MemorySink()
        tracer = Tracer(sink, thread_safe=True)
        # One window closes a round in; the other outlasts the run.
        config = AioClusterConfig(
            n=8, faults="crash@1-2:0.125; crash@1-40:0.25",
            drain_rounds=2.0, **QUICK,
        )
        result = run_aio_experiment(config, seed=5, tracer=tracer)
        assert result.faults == config.faults.describe()
        assert result.reachable_receivers is not None
        assert len(result.reachable_receivers) < len(
            result.correct_receivers
        )
        assert any(e["ev"] == "crash" for e in sink.events)
        assert tracer.counters.heals > 0

    def test_attacked_stream_still_delivers_on_drum(self):
        result = run_aio_experiment(
            AioClusterConfig(
                n=16, malicious_fraction=0.125,
                attack=AttackSpec(alpha=0.25, x=8.0),
                drain_rounds=6.0,
                **QUICK,
            ),
            seed=6,
        )
        assert result.deliveries
        assert result.residual_reliability() > 0.5

    def test_two_hundred_nodes_deliver_under_a_targeted_flood(self):
        """Scale: the one gate the retired aio-smoke CI job alone held."""
        tracer = Tracer(thread_safe=True)
        result = run_aio_experiment(
            AioClusterConfig(
                n=200, loss=0.01, attack=AttackSpec(alpha=0.01, x=64.0),
                round_duration_ms=200.0, purge_rounds=20, send_rate=20.0,
                messages=5, drain_rounds=8.0,
            ),
            seed=11,
            tracer=tracer,
        )
        assert result.residual_reliability() >= 0.99
        assert tracer.counters.reconcile_measurement(result) == []


class TestOneHost:
    """The wall clock hosts the DES's group: one build, one seed order."""

    @pytest.mark.parametrize(
        "fields",
        [
            dict(n=8),
            dict(
                n=12, malicious_fraction=0.25,
                attack=AttackSpec(alpha=0.25, x=8),
                faults="crash@2-4:0.25; loss:0.02; delay:4~2",
            ),
        ],
        ids=["plain", "attacked-faulty"],
    )
    def test_a_seeded_aio_cluster_lays_out_the_des_group(self, fields):
        config = AioClusterConfig(round_duration_ms=50.0, **fields)
        group = {
            f.name: getattr(config, f.name)
            for f in dataclasses.fields(GroupConfig)
        }
        des = _Cluster(ClusterConfig(**group), 5)
        des.start()

        async def go():
            cluster = AioCluster(config, seed=5)
            await cluster.start()
            try:
                return (
                    {
                        pid: node.rng.bit_generator.state
                        for pid, node in cluster.nodes.items()
                    },
                    [a.rng.bit_generator.state for a in cluster.attackers],
                )
            finally:
                await cluster.stop()

        nodes, attackers = asyncio.run(go())
        assert nodes == {
            pid: node.rng.bit_generator.state
            for pid, node in des.nodes.items()
        }
        assert attackers == [a.rng.bit_generator.state for a in des.attackers]
        assert len(attackers) == (config.attack is not None)


class TestAioClusterLifecycle:
    def run(self, coro):
        return asyncio.run(coro)

    def test_await_delivery_reaches_whole_group(self):
        async def go():
            cluster = AioCluster(
                AioClusterConfig(n=8, round_duration_ms=50.0), seed=7
            )
            await cluster.start()
            try:
                mid = cluster.multicast(0, b"payload")
                ok = await cluster.await_delivery(
                    mid, fraction=1.0, timeout_s=10.0
                )
            finally:
                await cluster.stop()
            assert ok
            assert cluster.delivered_counts()[mid] == 8
            return cluster

        self.run(go())

    def test_stop_is_idempotent(self):
        async def go():
            cluster = AioCluster(AioClusterConfig(n=4), seed=8)
            await cluster.start()
            await cluster.stop()
            await cluster.stop()

        self.run(go())

    def test_node_error_watchdog_surfaces_in_await(self):
        async def go():
            cluster = AioCluster(AioClusterConfig(n=4), seed=9)
            await cluster.start()
            try:
                cluster._record_node_error(2, RuntimeError("boom"))
                with pytest.raises(RuntimeError, match="node 2"):
                    await cluster.await_delivery((0, 0), timeout_s=1.0)
            finally:
                await cluster.stop()

        self.run(go())

    def test_inject_faults_mid_run(self):
        async def go():
            cluster = AioCluster(
                AioClusterConfig(n=8, round_duration_ms=50.0), seed=10
            )
            await cluster.start()
            try:
                cluster.inject_faults("crash@1-100:0.25")
                assert cluster.config.faults is not None
                assert cluster.config.faults.describe() == "crash@1-100:0.25"
                with pytest.raises(RuntimeError, match="already installed"):
                    cluster.inject_faults("loss:0.1")
                with pytest.raises(ValueError, match="churn"):
                    cluster.inject_faults("join@3:0.2")
                mid = cluster.multicast(0, b"under-faults")
                await cluster.await_delivery(
                    mid, fraction=0.5, timeout_s=10.0
                )
            finally:
                await cluster.stop()
            result = cluster.result(10.0, 1)
            assert result.faults == "crash@1-100:0.25"
            assert result.reachable_receivers is not None

        self.run(go())

    def test_inject_attack_mid_run(self):
        async def go():
            cluster = AioCluster(
                AioClusterConfig(
                    n=12, malicious_fraction=0.25, round_duration_ms=50.0
                ),
                seed=11,
            )
            await cluster.start()
            try:
                attacker = cluster.inject_attack(AttackSpec(alpha=0.25, x=8))
                assert attacker.running
                assert cluster.attackers == [attacker]
                mid = cluster.multicast(0, b"under-attack")
                ok = await cluster.await_delivery(
                    mid, fraction=0.5, timeout_s=10.0
                )
                assert ok
            finally:
                await cluster.stop()
            assert not attacker.running

        self.run(go())

    def test_udp_transport_delivers(self):
        async def go():
            cluster = AioCluster(
                AioClusterConfig(
                    n=5, transport="udp", round_duration_ms=50.0
                ),
                seed=12,
            )
            await cluster.start()
            try:
                mid = cluster.multicast(0, b"over-udp")
                ok = await cluster.await_delivery(
                    mid, fraction=1.0, timeout_s=10.0
                )
                assert ok
            finally:
                await cluster.stop()

        self.run(go())


def _loop_transports():
    return [
        AioLoopbackTransport(),
        UdpTransport(base_port=28400, ports_per_node=16),
    ]


class TestAioTransportClock:
    """``call_later`` on both asyncio transports is an event on the clock."""

    def run_on_each(self, scenario):
        for transport in _loop_transports():
            try:
                asyncio.run(scenario(transport))
            finally:
                transport.close()

    def test_on_loop_call_runs_on_the_loop_not_early_cancels(self):
        async def scenario(transport):
            transport.attach()
            ran = []
            t0 = time.monotonic()
            transport.call_later(
                0.02,
                lambda: ran.append((threading.get_ident(), time.monotonic())),
            )
            await asyncio.sleep(0.06)
            [(thread, fired_at)] = ran
            assert thread == threading.get_ident()
            assert fired_at - t0 >= 0.02
            cancelled = transport.call_later(0.01, lambda: ran.append("no"))
            cancelled.cancel()
            await asyncio.sleep(0.04)
            assert len(ran) == 1

        self.run_on_each(scenario)

    def test_down_transport_counts_a_drop_and_returns_none(self):
        for transport in _loop_transports():
            try:
                assert transport.call_later(0.01, lambda: None) is None
                assert transport.dropped == 1  # never attached
                loop = asyncio.new_event_loop()
                transport.attach(loop)
                loop.close()
                assert transport.call_later(0.01, lambda: None) is None
                assert transport.dropped == 2  # loop gone
            finally:
                transport.close()
            assert transport.call_later(0.01, lambda: None) is None
            assert transport.dropped == 3  # closed


class TestShapedCluster:
    def test_delay_plan_end_to_end_without_timer_threads(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a threading.Timer was started")

        monkeypatch.setattr(threading, "Timer", refuse)

        async def go():
            cluster = AioCluster(
                AioClusterConfig(
                    n=12, round_duration_ms=100.0, faults="delay:20~10"
                ),
                seed=13,
            )
            await cluster.start()
            try:
                for i in range(3):
                    mid = cluster.multicast(0, f"shaped-{i}".encode())
                    assert await cluster.await_delivery(
                        mid, fraction=1.0, timeout_s=15.0
                    )
                assert cluster.shaper.delayed > 0
            finally:
                await cluster.stop()
            return cluster

        cluster = asyncio.run(go())
        assert cluster.node_errors == []
        assert cluster.shaper.pending == 0
        result = cluster.result(10.0, 3)
        assert result.faults == "delay:20~10"
        assert result.residual_reliability() >= 0.99


class TestOneNetwork:
    """aio sends through the DES's link: sends and drops are traced."""

    def test_sends_and_every_drop_are_traced(self):
        config = AioClusterConfig(n=8, round_duration_ms=50.0, loss=0.05)
        tracer = Tracer()

        async def go():
            cluster = AioCluster(config, seed=1, tracer=tracer)
            await cluster.start()
            try:
                for i in range(4):
                    mid = cluster.multicast(0, f"traced-{i}".encode())
                    assert await cluster.await_delivery(
                        mid, fraction=1.0, timeout_s=15.0
                    )
                # A datagram to a port nobody binds is dropped as closed.
                cluster.transport.send(
                    Address(0, 1), Address(config.n + 5, 1), b"nobody"
                )
                await asyncio.sleep(0.3)
                cluster.clock.catch_up()
                in_flight = cluster.transport.pending
            finally:
                await cluster.stop()
            return cluster, in_flight

        cluster, in_flight = asyncio.run(go())
        counters = tracer.counters
        drops = counters.dropped_by_reason
        assert counters.by_type["gossip_sent"] > 0
        assert drops["loss"] == cluster.transport.dropped > 0
        assert drops["closed"] > 0
        # Every traced send ends delivered, dropped, or still in flight.
        assert counters.by_type["gossip_sent"] == (
            cluster.transport.inner.delivered + sum(drops.values()) + in_flight
        )
        assert counters.reconcile_measurement(cluster.result(10.0, 4)) == []


class TestAioChurn:
    """The host's churn on the wall clock: joins, leaves and an expel."""

    def test_a_churn_plan_runs_on_the_wall_clock(self):
        config = AioClusterConfig(
            n=20, round_duration_ms=50.0,
            faults="join@3:0.2; leave@6:0.1; expel@8:0.05",
        )
        tracer = Tracer()

        async def go():
            cluster = AioCluster(config, seed=3, tracer=tracer)
            await cluster.start()
            try:
                for i in range(3):
                    cluster.multicast(0, f"churn-{i}".encode())
                    await asyncio.sleep(0.15)
                await asyncio.sleep(0.5)  # past the expel at round 8
            finally:
                await cluster.stop()
            return cluster

        cluster = asyncio.run(go())
        result = cluster.result(10.0, 3)
        assert cluster.joined == [20, 21, 22, 23]
        assert cluster.left == [18, 19]
        assert len(cluster.expelled) == 1
        assert cluster.node_errors == []
        assert result.churn["joined"] == 4 and result.churn["left"] == 2
        assert tracer.counters.reconcile_measurement(result) == []

    def test_injected_churn_is_refused(self):
        async def go():
            cluster = AioCluster(
                AioClusterConfig(n=8, round_duration_ms=50.0), seed=1
            )
            await cluster.start()
            try:
                with pytest.raises(ValueError, match=r"leave@3:0\.2"):
                    cluster.inject_faults("leave@3:0.2")
                assert cluster.schedule is None
            finally:
                await cluster.stop()

        asyncio.run(go())


class TestSerialScoping:
    def test_message_ids_restart_per_cluster(self):
        """Two seeded runs mint identical (source, serial) ids."""

        async def first_ids():
            cluster = AioCluster(AioClusterConfig(n=4), seed=13)
            await cluster.start()
            try:
                ids = [cluster.multicast(0, b"x") for _ in range(3)]
            finally:
                await cluster.stop()
            return ids

        a = asyncio.run(first_ids())
        b = asyncio.run(first_ids())
        assert a == b == [(0, 0), (0, 1), (0, 2)]
