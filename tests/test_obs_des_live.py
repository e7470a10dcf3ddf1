"""Observability on the continuous-time stacks: DES and asyncio.

The DES cluster and the wall-clock asyncio cluster share the tracer
surface with the round engines but run in milliseconds, not rounds:
their events carry ``t`` timestamps and no ``round`` context.  These
tests check delivery reconciliation against ``MeasurementResult``,
fault transitions (crash / heal), drop classification, and
non-perturbation of the seeded DES stream.
"""

import asyncio

import pytest

from repro.aio import AioCluster, AioClusterConfig
from repro.api import Experiment
from repro.des.cluster import ClusterConfig, run_throughput_experiment
from repro.obs import MemorySink, Tracer

CHAOS = "crash@2-5:0.2;loss:0.05"
CHURN = "join@4:0.2; leave@9:0.1; expel@13:0.1"


def des_config(**kw):
    defaults = dict(
        protocol="drum", n=20, malicious_fraction=0.1,
        send_rate=20.0, messages=30, round_duration_ms=100.0,
    )
    defaults.update(kw)
    return ClusterConfig(**defaults)


class TestDesTracing:
    @pytest.mark.parametrize("faults", [None, CHURN], ids=["static", "churn"])
    def test_counters_reconcile_against_measurement(self, faults):
        # Through the des engine: the one entry point every caller uses.
        exp = Experiment(
            protocol="drum", n=20, malicious_fraction=0.1, send_rate=20.0,
            messages=30, round_duration_ms=100.0, faults=faults,
        )
        tracer = Tracer()
        result = exp.run(engine="des", seed=7, tracer=tracer)
        assert result.deliveries
        assert (result.churn is not None) == (faults is not None)
        assert tracer.counters.delivered_by_via.get("source", 0) == 30
        assert tracer.counters.reconcile_measurement(result) == []

    def test_events_are_continuous_time(self):
        sink = MemorySink()
        result = run_throughput_experiment(
            des_config(), seed=7, tracer=Tracer(sink)
        )
        events = sink.events
        assert events[0]["ev"] == "run_start"
        assert events[0]["engine"] == "des"
        assert "round" not in events[0]
        sent = [e for e in events if e["ev"] == "gossip_sent"]
        assert sent and all("t" in e and "round" not in e for e in sent)
        ends = [e for e in events if e["ev"] == "run_end"]
        assert len(ends) == 1
        assert ends[0]["delivered"] == len(result.deliveries)

    def test_fault_transitions_traced(self):
        tracer = Tracer()
        result = run_throughput_experiment(
            des_config(faults=CHAOS), seed=7, tracer=tracer
        )
        counters = tracer.counters
        assert counters.crashes > 0
        assert counters.heals == counters.crashes  # every crash recovers
        assert counters.dropped_by_reason.get("loss", 0) > 0
        assert counters.reconcile_measurement(result) == []

    def test_tracing_does_not_perturb_the_seeded_stream(self):
        plain = run_throughput_experiment(des_config(faults=CHAOS), seed=11)
        traced = run_throughput_experiment(
            des_config(faults=CHAOS), seed=11, tracer=Tracer()
        )

        def fingerprint(result):
            # msg_id serials come from a process-global counter, so they
            # shift between runs in one process; normalise them to
            # first-seen indices before comparing the streams.
            serials = {}
            rows = []
            for rec in result.deliveries:
                serial = serials.setdefault(rec.msg_id, len(serials))
                rows.append(
                    (rec.receiver, serial, rec.delivered_at_ms,
                     rec.latency_ms, rec.round_counter)
                )
            return rows

        assert fingerprint(traced) == fingerprint(plain)
        assert traced.faults == plain.faults


def traced_multicast(config, seed, tracer, *, fraction=1.0, linger_s=0.0):
    """One multicast from node 0 on a traced :class:`AioCluster`; waits
    for ``fraction`` of the group, then ``linger_s`` more, then stops."""

    async def go():
        cluster = AioCluster(config, seed=seed, tracer=tracer)
        await cluster.start()
        try:
            mid = cluster.multicast(0, b"traced")
            await cluster.await_delivery(
                mid, fraction=fraction, timeout_s=10.0
            )
            await asyncio.sleep(linger_s)
        finally:
            await cluster.stop()
        return cluster

    return asyncio.run(go())


class TestLiveTracing:
    def test_live_deliveries_reconcile(self):
        cfg = AioClusterConfig(protocol="drum", n=6, round_duration_ms=80.0)
        tracer = Tracer(thread_safe=True)
        cluster = traced_multicast(cfg, 1, tracer)
        result = cluster.result(send_rate=1.0, messages_sent=1)
        assert len({d.receiver for d in result.deliveries}) == 6
        assert tracer.counters.reconcile_measurement(result) == []
        counters = tracer.counters
        assert counters.delivered_by_via.get("source", 0) == 1
        assert counters.by_type["run_start"] == 1
        assert counters.by_type["run_end"] == 1

    def test_live_events_are_continuous_time(self):
        sink = MemorySink()
        cfg = AioClusterConfig(protocol="push", n=4, round_duration_ms=60.0)
        traced_multicast(cfg, 3, Tracer(sink, thread_safe=True))
        delivered = [e for e in sink.events if e["ev"] == "delivered"]
        assert delivered
        for event in delivered:
            assert "round" not in event
            assert "t" in event

    def test_live_fault_driver_emits_crash_and_heal(self):
        tracer = Tracer(thread_safe=True)
        cfg = AioClusterConfig(
            protocol="drum", n=6, round_duration_ms=50.0,
            faults="crash@1-2:0.2",
        )
        # Let the fault schedule play out: crash@1-2 spans one round.
        traced_multicast(cfg, 5, tracer, fraction=0.5, linger_s=0.25)
        assert tracer.counters.crashes > 0
        assert tracer.counters.heals > 0
