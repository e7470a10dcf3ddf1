"""The gossip service control plane (`repro.aio.service`)."""

import asyncio
import json
import socket
import threading
import time

import pytest

import repro.aio.cluster
from repro.aio.service import EventStreamSink, GossipService
from repro.aio.transport import UdpTransport
from repro.des.cluster import _Cluster


class TestEventStreamSink:
    def test_subscribers_see_events_oldest_first(self):
        sink = EventStreamSink()
        sub = sink.subscribe()
        sink.write({"ev": "a"})
        sink.write({"ev": "b"})
        assert sink.drain(sub) == [{"ev": "a"}, {"ev": "b"}]
        assert sink.drain(sub) == []
        assert sink.written == 2

    def test_slow_subscriber_loses_oldest_and_counts_drops(self):
        sink = EventStreamSink()
        sub = sink.subscribe(maxlen=3)
        for i in range(10):
            sink.write({"ev": "e", "i": i})
        assert sink.dropped(sub) == 7
        # The ring kept the newest three.
        assert [e["i"] for e in sink.drain(sub)] == [7, 8, 9]
        # Draining resets the pressure but not the historical count.
        sink.write({"ev": "e", "i": 10})
        assert sink.dropped(sub) == 7

    def test_replay_seeds_late_subscriber_with_backlog(self):
        sink = EventStreamSink()
        sink.write({"ev": "early"})
        live_only = sink.subscribe()
        replayer = sink.subscribe(replay=True)
        assert sink.drain(live_only) == []
        assert sink.drain(replayer) == [{"ev": "early"}]

    def test_backlog_is_bounded(self):
        sink = EventStreamSink(maxlen=4)
        for i in range(10):
            sink.write({"i": i})
        sub = sink.subscribe(replay=True)
        assert [e["i"] for e in sink.drain(sub)] == [6, 7, 8, 9]

    def test_unsubscribed_consumer_stops_accumulating(self):
        sink = EventStreamSink()
        sub = sink.subscribe()
        sink.unsubscribe(sub)
        sink.write({"ev": "a"})
        assert sink.drain(sub) == []
        assert sink.dropped(sub) == 0

    def test_invalid_maxlen_rejected(self):
        with pytest.raises(ValueError, match="maxlen"):
            EventStreamSink(maxlen=0)

    def test_concurrent_writers_never_lose_counts(self):
        """Emission is called from loop + service threads; totals must add up."""
        sink = EventStreamSink(maxlen=100_000)
        sub = sink.subscribe()
        threads = [
            threading.Thread(
                target=lambda: [
                    sink.write({"ev": "e"}) for _ in range(500)
                ]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sink.written == 4000
        assert len(sink.drain(sub)) + sink.dropped(sub) == 4000


@pytest.fixture()
def service():
    svc = GossipService()
    svc.start()
    yield svc
    svc.stop()


def rpc(service, *requests):
    """Send JSONL requests on one connection; returns the responses."""
    with socket.create_connection(
        (service.host, service.port), timeout=15
    ) as sock:
        stream = sock.makefile("rw", encoding="utf-8")
        replies = []
        for request in requests:
            stream.write(json.dumps(request) + "\n")
            stream.flush()
            replies.append(json.loads(stream.readline()))
        return replies if len(replies) > 1 else replies[0]


class TestGossipService:
    def test_binds_an_ephemeral_port(self, service):
        assert service.port != 0
        assert rpc(service, {"op": "ping"}) == {
            "ok": True, "pong": True, "engine": "aio",
        }

    def test_unknown_op_and_bad_json_report_errors(self, service):
        reply = rpc(service, {"op": "frobnicate"})
        assert reply["ok"] is False
        assert "unknown op" in reply["error"]
        with socket.create_connection(
            (service.host, service.port), timeout=15
        ) as sock:
            stream = sock.makefile("rw", encoding="utf-8")
            stream.write("not json\n")
            stream.flush()
            reply = json.loads(stream.readline())
        assert reply["ok"] is False

    def test_oversized_line_gets_the_error_envelope(self, service):
        """A line over asyncio's 64 KiB stream limit costs that client
        its connection, not the service: it is told why, and a second
        client is still answered."""
        with socket.create_connection(
            (service.host, service.port), timeout=15
        ) as sock:
            sock.sendall(b"x" * 100_000 + b"\n")
            stream = sock.makefile("r", encoding="utf-8")
            reply = json.loads(stream.readline())
        assert reply["ok"] is False
        assert "too long" in reply["error"]
        assert rpc(service, {"op": "status"}) == {
            "ok": True, "running": False,
        }

    def test_ops_require_a_cluster(self, service):
        reply = rpc(service, {"op": "multicast", "payload": "x"})
        assert reply["ok"] is False
        assert "op=start" in reply["error"]

    def test_full_control_plane_flow(self, service):
        start = rpc(
            service,
            {
                "op": "start", "n": 10, "protocol": "drum",
                "round_duration_ms": 60.0, "loss": 0.0, "seed": 21,
            },
        )
        assert start == {"ok": True, "n": 10, "protocol": "drum"}
        # Double start is refused until the first cluster stops.
        again = rpc(service, {"op": "start", "n": 4})
        assert again["ok"] is False and "already running" in again["error"]

        status = rpc(service, {"op": "status"})
        assert status["running"] is True and status["n"] == 10

        sent = rpc(
            service,
            {
                "op": "multicast", "payload": "hello",
                "await_fraction": 1.0, "timeout_s": 15.0,
            },
        )
        assert sent["ok"] is True and sent["delivered"] is True

        injected = rpc(
            service,
            {
                "op": "inject", "faults": "crash@2-50:0.2",
                "attack": {"alpha": 0.2, "x": 8},
            },
        )
        assert injected["ok"] is True
        assert injected["injected"]["faults"] == "crash@2-50:0.2"
        assert injected["injected"]["attack"]["victims"] == 2
        status = rpc(service, {"op": "status"})
        assert status["attackers"] == 1
        assert status["faults"] == "crash@2-50:0.2"

        stopped = rpc(service, {"op": "stop"})
        assert stopped["ok"] is True and stopped["deliveries"] > 0
        assert rpc(service, {"op": "status"})["running"] is False

    def test_multicast_from_a_down_or_unknown_pid_is_refused(self, service):
        rpc(
            service,
            {
                "op": "start", "n": 8, "round_duration_ms": 50.0,
                "loss": 0.0, "seed": 26,
            },
        )
        rpc(service, {"op": "inject", "faults": "crash@1-1000:0.25"})
        time.sleep(0.12)
        for source in (6, 99):
            reply = rpc(
                service, {"op": "multicast", "payload": "x", "source": source}
            )
            assert reply["ok"] is False
            assert f"node {source}" in reply["error"]
        assert rpc(service, {"op": "status"})["tracked_messages"] == 0
        rpc(service, {"op": "stop"})

    def test_status_reports_the_shaper_once_a_plan_is_installed(self, service):
        rpc(
            service,
            {
                "op": "start", "n": 8, "round_duration_ms": 60.0,
                "loss": 0.0, "seed": 24,
            },
        )
        assert "shaper" not in rpc(service, {"op": "status"})
        rpc(service, {"op": "inject", "faults": "delay:15~5; dup:0.2"})
        sent = rpc(
            service,
            {
                "op": "multicast", "payload": "shaped",
                "await_fraction": 1.0, "timeout_s": 15.0,
            },
        )
        assert sent["delivered"] is True
        shaper = rpc(service, {"op": "status"})["shaper"]
        assert sorted(shaper) == [
            "blocked", "delayed", "dropped", "duplicated", "pending",
        ]
        assert shaper["delayed"] > 0 and shaper["duplicated"] > 0
        assert shaper["blocked"] == shaper["dropped"] == 0
        assert 0 <= shaper["pending"] <= shaper["delayed"]
        rpc(service, {"op": "stop"})

    def test_status_reports_the_clock(self, service):
        rpc(
            service,
            {
                "op": "start", "n": 8, "round_duration_ms": 64.0,
                "loss": 0.0, "seed": 25,
            },
        )
        sent = rpc(
            service,
            {
                "op": "multicast", "payload": "timed",
                "await_fraction": 1.0, "timeout_s": 15.0,
            },
        )
        assert sent["delivered"] is True
        clock = rpc(service, {"op": "status"})["clock"]
        assert sorted(clock) == [
            "events", "late_ms_max", "refused", "tick_ms", "wakes",
        ]
        assert clock["tick_ms"] == 4.0  # 1/16 round on loopback
        assert clock["events"] > clock["wakes"] > 0
        assert clock["late_ms_max"] >= 0.0
        rpc(service, {"op": "stop"})

    def test_a_saturated_clock_still_lets_status_and_stop_answer(self, service):
        """A pass is bounded, however far behind the wall the events are."""
        rpc(
            service,
            {
                "op": "start", "n": 8, "round_duration_ms": 64.0,
                "loss": 0.0, "seed": 26,
            },
        )
        clock = service.cluster.clock

        def burn():
            # Three ticks of CPU for every tick of event time.
            time.sleep(3 * clock.tick_ms / 1000.0)
            clock.schedule(clock.tick_ms, burn)

        service._loop.call_soon_threadsafe(clock.schedule, 0.0, burn)
        time.sleep(1.5)
        asked = time.monotonic()
        status = rpc(service, {"op": "status"})
        stopped = rpc(service, {"op": "stop"})
        assert time.monotonic() - asked < 0.5
        assert stopped["ok"] is True
        # Slow motion, reported: event time is most of a second behind.
        assert status["clock"]["late_ms_max"] > 500.0

    def test_metrics_exposes_prometheus_counters(self, service):
        """Satellite check: the obs counters are scrape-ready over TCP."""
        rpc(
            service,
            {
                "op": "start", "n": 8, "round_duration_ms": 60.0,
                "loss": 0.0, "seed": 22,
            },
        )
        rpc(
            service,
            {
                "op": "multicast", "payload": "m",
                "await_fraction": 1.0, "timeout_s": 15.0,
            },
        )
        reply = rpc(service, {"op": "metrics"})
        assert reply["ok"] is True
        exposition = reply["exposition"]
        assert "# TYPE repro_events_total counter" in exposition
        assert 'repro_events_total{type="delivered"}' in exposition
        rpc(service, {"op": "stop"})

    def test_a_scrape_carries_the_self_health_status_reports(self, service):
        rpc(
            service,
            {
                "op": "start", "n": 8, "round_duration_ms": 60.0,
                "loss": 0.0, "seed": 27,
            },
        )
        rpc(service, {"op": "inject", "faults": "delay:15~5"})
        rpc(
            service,
            {
                "op": "multicast", "payload": "m",
                "await_fraction": 1.0, "timeout_s": 15.0,
            },
        )

        async def both():
            # One loop turn, so the clock cannot move between the two.
            status = service._op_status()
            return status, (await service._dispatch("metrics", {}))

        status, reply = asyncio.run_coroutine_threadsafe(
            both(), service._loop
        ).result(timeout=15)
        rpc(service, {"op": "stop"})
        gauges = {}
        for line in reply["exposition"].splitlines():
            if line.startswith("repro_aio_"):
                name, value = line.split()
                gauges[name] = float(value)
        expected = {
            f"repro_aio_{block}_{key}": float(value)
            for block in ("clock", "shaper")
            for key, value in status[block].items()
        }
        assert gauges == expected
        assert "# TYPE repro_aio_clock_wakes gauge" in reply["exposition"]
        assert gauges["repro_aio_clock_wakes"] > 0
        assert gauges["repro_aio_shaper_delayed"] > 0

    def test_stream_replays_history_and_reports_drops(self, service):
        rpc(
            service,
            {
                "op": "start", "n": 6, "round_duration_ms": 60.0,
                "loss": 0.0, "seed": 23,
            },
        )
        rpc(
            service,
            {
                "op": "multicast", "payload": "m",
                "await_fraction": 1.0, "timeout_s": 15.0,
            },
        )
        with socket.create_connection(
            (service.host, service.port), timeout=15
        ) as sock:
            stream = sock.makefile("rw", encoding="utf-8")
            stream.write(json.dumps({"op": "stream", "max_events": 5}) + "\n")
            stream.flush()
            header = json.loads(stream.readline())
            assert header == {"ok": True, "streaming": True}
            events = [json.loads(stream.readline()) for _ in range(5)]
            tail = json.loads(stream.readline())
        # Replay: the run_start emitted before we subscribed leads.
        assert events[0]["ev"] == "run_start"
        assert events[0]["engine"] == "aio"
        assert tail["ev"] == "stream_end"
        assert tail["sent"] == 5
        assert tail["dropped"] == 0
        rpc(service, {"op": "stop"})

    def test_start_twice_rejected_then_restart_after_stop(self, service):
        assert rpc(service, {"op": "start", "n": 4, "seed": 1})["ok"]
        assert rpc(service, {"op": "stop"})["ok"]
        assert rpc(service, {"op": "start", "n": 4, "seed": 2})["ok"]
        assert rpc(service, {"op": "stop"})["ok"]

    def test_a_failed_start_releases_its_sockets(self, service, monkeypatch):
        """A start that dies after its nodes bound stops the half-started
        group, so the next UDP cluster gets the same ports."""
        made = []

        class Narrow(UdpTransport):  # 65472 + 4·16: four ids fit
            def __init__(self):
                super().__init__(base_port=65472, ports_per_node=16)
                made.append(self)

        real_start = _Cluster.start

        def start_then_fail(cluster):
            real_start(cluster)
            raise RuntimeError("died after binding")

        monkeypatch.setattr(repro.aio.cluster, "UdpTransport", Narrow)
        monkeypatch.setattr(_Cluster, "start", start_then_fail)
        request = {
            "op": "start", "n": 4, "transport": "udp",
            "round_duration_ms": 50.0, "seed": 7,
        }
        failed = rpc(service, request)
        assert failed["ok"] is False and "died" in failed["error"]
        assert made[0]._sockets == {} and made[0]._send_sock is None
        monkeypatch.setattr(_Cluster, "start", real_start)
        assert rpc(service, request)["ok"]
        sent = rpc(
            service,
            {
                "op": "multicast", "payload": "x",
                "await_fraction": 1.0, "timeout_s": 15.0,
            },
        )
        assert sent["delivered"] is True
        assert rpc(service, {"op": "stop"})["ok"]

    def test_a_udp_group_past_the_port_range_is_refused(self, service):
        reply = rpc(service, {"op": "start", "n": 712, "transport": "udp"})
        assert reply["ok"] is False and "at most 711" in reply["error"]
        assert rpc(service, {"op": "status"})["running"] is False

    def test_stop_tears_down_running_cluster(self):
        svc = GossipService()
        svc.start()
        rpc(svc, {"op": "start", "n": 4, "seed": 5})
        svc.stop()  # must not hang or leak the cluster
        assert svc.cluster is None
