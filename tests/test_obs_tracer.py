"""Unit tests for the observability core: tracer, sinks, counters.

These cover the layer in isolation — event shape, round-context
stamping, sink behaviour, counter aggregation, and the replay
summariser — before the engine-integration suites
(test_obs_exact / test_obs_determinism / test_obs_des_live) exercise it
end to end.
"""

import io
import json
import threading

import pytest

from repro.obs import (
    DROP_REASONS,
    EVENT_TYPES,
    JsonlSink,
    MemorySink,
    ObsCounters,
    PrometheusSink,
    Tracer,
    read_trace,
    summarize,
)
from repro.obs.sinks import encode_event


def test_typed_helpers_build_expected_events():
    sink = MemorySink()
    tracer = Tracer(sink)
    tracer.run_start("exact", protocol="drum", n=8)
    tracer.round_start(1)
    tracer.gossip_sent(0, 3, 17)
    tracer.flood_sent(3, 17, count=32)
    tracer.accepted(3, 17, valid=1, fabricated=2)
    tracer.dropped("bound", node=3, port=17, count=30)
    tracer.delivered(node=3)
    tracer.run_end(rounds=1, delivered=1)
    events = sink.events
    assert [e["ev"] for e in events] == [
        "run_start", "round_start", "gossip_sent", "flood_sent",
        "accepted", "dropped", "delivered", "run_end",
    ]
    for event in events:
        assert event["ev"] in EVENT_TYPES
    # Round context: run_start stamps round 0, round_start(1) re-stamps.
    assert events[0]["round"] == 0
    assert all(e["round"] == 1 for e in events[2:])
    assert events[3]["count"] == 32
    assert events[4] == {
        "ev": "accepted", "node": 3, "port": 17,
        "valid": 1, "fabricated": 2, "round": 1,
    }
    assert events[5]["reason"] in DROP_REASONS


def test_continuous_run_start_leaves_events_unrounded():
    sink = MemorySink()
    tracer = Tracer(sink)
    tracer.run_start("des", continuous=True, protocol="drum", n=8)
    tracer.delivered(node=2, t=123.4)
    for event in sink.events:
        assert "round" not in event
    assert sink.events[1]["t"] == 123.4


def test_memory_sink_ring_buffer_bounds():
    sink = MemorySink(maxlen=3)
    tracer = Tracer(sink)
    tracer.run_start("exact")
    for node in range(5):
        tracer.delivered(node=node)
    assert len(sink) == 3
    assert [e["node"] for e in sink.events] == [2, 3, 4]
    # Counters still saw everything the ring buffer evicted.
    assert tracer.counters.delivered_total == 5
    sink.clear()
    assert len(sink) == 0


def test_jsonl_sink_round_trips_through_read_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = JsonlSink(path)
    tracer = Tracer(sink)
    tracer.run_start("exact", protocol="drum")
    tracer.round_start(1)
    tracer.delivered(node=4, via="push")
    tracer.close()
    assert sink.written == 3
    events = read_trace(path)
    assert [e["ev"] for e in events] == ["run_start", "round_start", "delivered"]
    assert events[2] == {
        "ev": "delivered", "count": 1, "node": 4, "via": "push", "round": 1,
    }


def test_jsonl_sink_accepts_open_file_without_owning_it():
    buf = io.StringIO()
    sink = JsonlSink(buf)
    sink.write({"ev": "run_end"})
    sink.close()  # flushes, must not close the caller's file
    assert not buf.closed
    assert json.loads(buf.getvalue()) == {"ev": "run_end"}


def test_read_trace_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"ev":"run_start"}\nnot json\n', encoding="utf-8")
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        read_trace(path)
    path.write_text('{"no_ev_key":1}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="not a trace event"):
        read_trace(path)


def test_encode_event_canonical_and_numpy_safe():
    np = pytest.importorskip("numpy")
    line = encode_event(
        {"ev": "delivered", "node": np.int64(3), "t": np.float64(1.5),
         "nodes": {2, 1}}
    )
    assert line == '{"ev":"delivered","node":3,"nodes":[1,2],"t":1.5}'


def test_prometheus_sink_renders_counter_families(tmp_path):
    path = tmp_path / "metrics.prom"
    sink = PrometheusSink(path)
    tracer = Tracer(sink)
    tracer.run_start("exact")
    tracer.gossip_sent(0, 1, 9)
    tracer.dropped("attack", node=1, port=9, count=7)
    tracer.delivered(node=1)
    tracer.crash([2, 3])
    text = sink.render()
    assert 'repro_sent_total{node="0"} 1' in text
    assert 'repro_dropped_total{reason="attack"} 7' in text
    assert "repro_delivered_total 1" in text
    assert 'repro_fault_transitions_total{kind="crash"} 2' in text
    tracer.close()
    assert path.read_text(encoding="utf-8") == text


def test_thread_safe_tracer_serialises_concurrent_emission():
    sink = MemorySink()
    tracer = Tracer(sink, thread_safe=True)
    tracer.run_start("aio", continuous=True)

    def worker(node):
        for _ in range(200):
            tracer.delivered(node=node)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert tracer.counters.delivered_total == 800
    assert len(sink) == 801  # run_start + 800 deliveries


def test_summarize_honours_aggregate_count_fields():
    events = [
        {"ev": "run_start", "engine": "fast", "round": 0},
        {"ev": "delivered", "count": 3, "round": 0},
        {"ev": "round_start", "round": 1},
        {"ev": "gossip_sent", "src": -1, "dst": -1, "count": 12, "round": 1},
        {"ev": "flood_sent", "dst": -1, "port": -1, "count": 40, "round": 1},
        {"ev": "delivered", "count": 5, "round": 1},
        {"ev": "dropped", "reason": "bound", "count": 4, "round": 1},
        {"ev": "run_end", "delivered": 8, "round": 1},
    ]
    summary = summarize(events)
    assert summary.engines == ["fast"]
    assert summary.delivered_total == 8
    assert summary.final_delivered == 8
    assert summary.infection_counts() == [3, 8]
    assert summary.max_round() == 1
    rows = summary.rounds
    assert rows[1].sent == 12
    assert rows[1].flooded == 40
    assert rows[1].dropped == {"bound": 4}
    assert summary.dropped_by_reason == {"bound": 4}
    # to_jsonable is JSON-clean as-is.
    json.dumps(summary.to_jsonable())


def test_counters_infection_counts_match_manual_fold():
    counters = ObsCounters()
    for rnd, n in [(0, 1), (1, 2), (1, 3), (3, 4)]:
        counters.ingest({"ev": "delivered", "count": 1, "round": rnd, "node": n})
    assert counters.infection_counts(3) == [1, 3, 3, 4]
    assert counters.delivery_round_by_node == {1: 0, 2: 1, 3: 1, 4: 3}
