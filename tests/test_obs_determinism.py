"""Trace determinism: the event stream is a function of (config, seed).

The Monte-Carlo layer shards runs across a process pool, with shards
recording events locally and the parent re-emitting them in shard / run
order — so the observed stream must be *identical* for any worker
count, and identical to a repeat of the same seed.  Traced runs must
also return exactly the results untraced runs do (tracing bypasses the
result cache rather than polluting it).
"""

import json

import pytest

from repro.adversary import AttackSpec
from repro.obs import MemorySink, Tracer
from repro.obs.sinks import encode_event
from repro.sim import Scenario, monte_carlo


def _scenario() -> Scenario:
    return Scenario(
        protocol="drum",
        n=24,
        malicious_fraction=0.1,
        attack=AttackSpec(alpha=0.25, x=16.0),
        max_rounds=60,
    )


def _traced(engine: str, runs: int, workers: int):
    sink = MemorySink()
    tracer = Tracer(sink)
    result = monte_carlo(
        _scenario(), runs=runs, seed=99, engine=engine,
        workers=workers, tracer=tracer,
    )
    return result, [encode_event(e) for e in sink.events]


@pytest.mark.parametrize("engine,runs", [("fast", 40), ("exact", 4)])
def test_event_stream_invariant_under_worker_count(engine, runs):
    result_1, events_1 = _traced(engine, runs, workers=1)
    result_3, events_3 = _traced(engine, runs, workers=3)
    assert events_1 == events_3
    assert json.dumps(result_1.to_dict(), sort_keys=True) == json.dumps(
        result_3.to_dict(), sort_keys=True
    )


@pytest.mark.parametrize("engine,runs", [("fast", 40), ("exact", 4)])
def test_tracing_does_not_change_the_result(engine, runs):
    untraced = monte_carlo(
        _scenario(), runs=runs, seed=99, engine=engine, workers=2, store=None
    )
    traced, events = _traced(engine, runs, workers=2)
    assert events  # the stream actually recorded something
    assert json.dumps(traced.to_dict(), sort_keys=True) == json.dumps(
        untraced.to_dict(), sort_keys=True
    )


def test_repeat_run_reproduces_the_exact_stream():
    _, first = _traced("fast", 30, workers=2)
    _, second = _traced("fast", 30, workers=2)
    assert first == second


def test_shard_and_run_annotations_are_ordered():
    """Parent-side re-emission orders events by shard (fast) / run
    (exact) index and annotates each event with its origin."""
    sink = MemorySink()
    monte_carlo(
        _scenario(), runs=40, seed=7, engine="fast", workers=3,
        tracer=Tracer(sink),
    )
    shards = [e["shard"] for e in sink.events]
    assert shards == sorted(shards)

    sink = MemorySink()
    monte_carlo(
        _scenario(), runs=4, seed=7, engine="exact", workers=2,
        tracer=Tracer(sink),
    )
    run_ids = [e["run"] for e in sink.events]
    assert run_ids == sorted(run_ids)
    assert set(run_ids) == {0, 1, 2, 3}
