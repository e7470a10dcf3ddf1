"""Cross-commit byte pins for the discrete-event stack.

The other DES determinism tests run one seed twice on one commit; these
pin seeded output by hash, so a change to ``des.node``, ``core.buffer``
or ``des.environment`` that moves a single RNG draw, hop counter or
delivery time fails here.  Regenerate only when seeded output is
*meant* to change: the failing assertion prints the new hash.
"""

import collections
import hashlib

import pytest

from repro.adversary.attacks import AttackSpec
from repro.api import Experiment, encode_envelope
from repro.des import ClusterConfig, run_single_message_experiment
from repro.des import engine
from repro.des.engine import EventLoop
from repro.obs import Tracer

#: Toy ``E`` of ``perf/workloads.stream_experiment``.
TOY_E = dict(
    n=20, attack=AttackSpec(alpha=0.1, x=64), loss=0.01,
    round_duration_ms=100, purge_rounds=20, send_rate=50, messages=20,
    faults="loss:0.02; delay:4~2",
)
CHURN = "loss:0.02; delay:4~2; join@3:0.1; leave@5:0.1; expel@6:0.05"

#: case -> (``TOY_E`` overrides, sha256 of the seeded envelope).
ENVELOPE_CASES = {
    "drum": (
        {},
        "d3ef926824f6839494bbb7cd11c2c704031eae60b30ef439ee550969e0cb4ba3",
    ),
    "push": (
        {"protocol": "push"},
        "e89e16db327080dcd84b9c5eb31e09ed673e5da6b3b47067568126fd3e7259ec",
    ),
    "pull": (
        {"protocol": "pull"},
        "bc2101815b43d2428ebc5f88f8ac4eb3d42d96baf62a0f576e7aa0220227d9fb",
    ),
    "drum-no-random-ports": (
        {"protocol": "drum-no-random-ports"},
        "12e03ea4ed5eb3be660fb1a5fd7bfca1612f95e05421b4bd437edbb2866ac4e1",
    ),
    "drum-shared-bounds": (
        {"protocol": "drum-shared-bounds"},
        "57dce0dbea61fc82ba189d7791ae70db2b9ff1dd2ef9f691601782e765eaf3a6",
    ),
    # Messages expire before they reach everyone, so expiry order and
    # timing show in the envelope.
    "short-purge": (
        {"purge_rounds": 2, "send_rate": 20},
        "c83a16ac15385a5017d81a8bc281cd40a7f1f1673bbcfd5a42efdb2edaad9a53",
    ),
    "churn": (
        {"faults": CHURN},
        "df39a4e938cc906c20ab46c14b4549546cfaab720ebfb4bf82944caeec48d6e3",
    ),
    # Every event kind and link fault at once; a recover (first crash
    # window) and a crash (second) fall on one round boundary.
    "chaos": (
        {"faults": "crash@3-6:0.1; crash@6:0.1; partition@7-9:0.4; "
                   "stall@4-5:0.1; gilbert:0.01,0.3,0.05,0.25; delay:4~2"},
        "3f3a6a8ef3b9e8434dff38488e03327fef9588fa162844ed23b6ddbc2b781856",
    ),
    # Joiners that leave again, leavers that rejoin from the departed
    # pool, an expel, and a crash window inside the churn.
    "churn-rejoin-crash": (
        {"faults": "loss:0.02; delay:4~2; join@3-9:0.1; leave@4-8:0.1; "
                   "expel@6:0.05; crash@5-7:0.1"},
        "016ceb22876e6f8c111fb2261b787eafc5f64809ad8cc8304a9acce58742eb21",
    ),
    "push-churn": (
        {"protocol": "push", "faults": CHURN},
        "e46ed1d1e25f16f6bb06dc2858fcf631080a9794ad255da3b93bebe8b07f94e7",
    ),
}

#: sha256 of the per-run propagation rounds of one tagged message whose
#: per-message ttl (horizon + 5) outlives ``purge_rounds`` at every node.
HORIZON_PIN = (
    "ea34ef9959e3ac347f2e3cd047567c673de2e8d7a60906e705ea1274dddb9684"
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(ENVELOPE_CASES))
def test_seeded_des_envelopes_are_pinned(case):
    overrides, pinned = ENVELOPE_CASES[case]
    exp = Experiment(**{**TOY_E, **overrides})
    result = exp.run(engine="des", seed=2121)
    assert result.deliveries
    digest = sha256(encode_envelope(result) + "\n")
    assert digest == pinned, (
        f"seeded des {case} envelope diverged from its pinned hash; the "
        "discrete-event stack no longer reproduces its recorded behaviour"
    )


#: Every timing shaper at once: the reorder hold-back and the duplicate's
#: latency draws ride here and nowhere else among the pins.
SHAPED = "loss:0.02; delay:20~10; reorder:0.1; dup:0.1"
#: (events the run executed, sha256 of its envelope).
SHAPED_PIN = (
    12798, "7283b45e6ec4e028749031cb7cb818461048adbd98f8cee04bd654ed0155e032"
)


def closures(queue):
    """Qualnames of queued callbacks, or callable arguments, that were
    defined inside a function: an allocation per event."""
    return {
        fn.__qualname__
        for _, _, _, callback, args in queue
        for fn in (callback, *args)
        if callable(fn) and "<locals>" in getattr(fn, "__qualname__", "")
    }


def test_a_datagram_hop_is_one_event_with_no_closure(monkeypatch):
    loops = []
    run_until = EventLoop.run_until

    def spy(loop, t_end):
        loops.append(loop)
        return run_until(loop, t_end)

    monkeypatch.setattr(EventLoop, "run_until", spy)
    result = Experiment(**{**TOY_E, "faults": SHAPED}).run(
        engine="des", seed=2121
    )
    (loop,) = set(loops)
    queued = {entry[3].__qualname__ for entry in loop._queue}
    # Datagrams in flight, the flood's scheduled sends, node timers.
    assert {"FaultyTransport._arrive", "FaultyTransport.send"} <= queued
    assert closures(loop._queue) == set()
    assert (
        loop.events_run, sha256(encode_envelope(result) + "\n")
    ) == SHAPED_PIN


#: The shaped run's ``EventHandle``\ s by the timer that asked for one:
#: only the node rounds and attacker bursts a stop cancels.  Datagrams,
#: queued flood sends, gossip offsets and stream multicasts are posted
#: without one, so this does not grow with the traffic.
SHAPED_HANDLES = {"GossipNode._round": 618, "AttackerProcess._burst": 121}


def test_only_cancellable_timers_build_a_handle(monkeypatch):
    made, timers = [], collections.Counter()
    handle, schedule = engine.EventHandle, EventLoop.schedule

    def counted():
        made.append(1)
        return handle()

    def spy(loop, delay_ms, fn, *args):
        timers[fn.__qualname__] += 1
        return schedule(loop, delay_ms, fn, *args)

    monkeypatch.setattr(engine, "EventHandle", counted)
    monkeypatch.setattr(EventLoop, "schedule", spy)
    Experiment(**{**TOY_E, "faults": SHAPED}).run(engine="des", seed=2121)
    assert dict(timers) == SHAPED_HANDLES
    assert len(made) == sum(SHAPED_HANDLES.values())


#: case -> (``by_type``, ``dropped_by_reason``) of a traced seeded run:
#: where a send, a drop or a delivery is traced may move, its count may not.
TRACE_COUNTER_PINS = {
    "chaos": (
        {"crash": 2, "delivered": 364, "dropped": 642, "gossip_sent": 6751,
         "heal": 1, "run_end": 1, "run_start": 1},
        {"closed": 3, "loss": 344, "partition": 295},
    ),
    "shaped": (
        {"delivered": 400, "dropped": 180, "gossip_sent": 7167,
         "run_end": 1, "run_start": 1},
        {"closed": 1, "loss": 179},
    ),
}


@pytest.mark.parametrize("case", sorted(TRACE_COUNTER_PINS))
def test_seeded_des_trace_counters_are_pinned(case):
    faults = SHAPED if case == "shaped" else ENVELOPE_CASES[case][0]["faults"]
    tracer = Tracer()
    Experiment(**{**TOY_E, "faults": faults}).run(
        engine="des", seed=2121, tracer=tracer
    )
    counters = tracer.counters
    assert (
        dict(counters.by_type), dict(counters.dropped_by_reason)
    ) == TRACE_COUNTER_PINS[case]


def test_seeded_horizon_ttl_override_run_is_pinned():
    config = ClusterConfig(
        protocol="push", n=12, malicious_fraction=0.0,
        attack=AttackSpec(alpha=0.25, x=64), round_duration_ms=100.0,
        purge_rounds=4, background_rate=0.5,
    )
    rounds = run_single_message_experiment(
        config, runs=3, seed=2121, horizon_rounds=30
    )
    assert sha256(repr(rounds.tolist())) == HORIZON_PIN, rounds
