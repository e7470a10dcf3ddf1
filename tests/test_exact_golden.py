"""Golden-trace pinning of the exact object-level engine.

The exact engine consumes randomness in a pinned order, so a seeded
run's ``RunResult.to_jsonable()`` JSON is a complete fingerprint of the
trace: any change to RNG consumption order, acceptance math, packet
routing, or round accounting shows up as a byte diff.  These tests
freeze one seeded scenario per protocol (drum, push, pull) plus both
Section 9 ablations against committed golden files, which is what lets
the bulk fast path claim *exact* equivalence with the pre-optimisation
engine rather than statistical similarity.  ``OP_COUNTS`` pins the work
a seeded run does (packets sent, channels opened) on top of its trace.

Regenerating a golden file (only when a change is *meant* to alter the
trace) is the test body itself: run the scenario and write ``render()``
to ``tests/golden/exact_<protocol>.json``.
"""

import json
from pathlib import Path

import pytest

from repro.adversary.attacks import AttackSpec
from repro.core.message import DataMessage
from repro.crypto import signatures
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import SignatureRegistry, default_registry
from repro.sim.engine import RoundSimulator
from repro.sim.scenario import Scenario

GOLDEN_DIR = Path(__file__).parent / "golden"

#: protocol -> pinned seed.  Distinct seeds so no two golden traces can
#: accidentally share a randomness stream.
CASES = {
    "drum": 1234,
    "push": 2345,
    "pull": 3456,
    "drum-no-random-ports": 4567,
    "drum-shared-bounds": 5678,
}


def golden_scenario(protocol: str) -> Scenario:
    return Scenario(
        protocol=protocol,
        n=48,
        malicious_fraction=0.1,
        attack=AttackSpec(alpha=0.25, x=32.0),
        max_rounds=200,
    )


def render(result) -> str:
    return json.dumps(result.to_jsonable(), sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("protocol", sorted(CASES))
def test_golden_trace_byte_identical(protocol):
    result = RoundSimulator(
        golden_scenario(protocol), seed=CASES[protocol]
    ).run()
    path = GOLDEN_DIR / f"exact_{protocol.replace('-', '_')}.json"
    assert render(result) == path.read_text(), (
        f"seeded {protocol} trace diverged from {path.name}; the engine "
        "is no longer byte-identical to the recorded behaviour"
    )


def test_naive_reference_mode_is_statistically_equivalent():
    """The tests' reference mode runs the same protocol.

    ``naive=True`` replays the textbook object-per-packet implementation
    on a different RNG stream, so traces differ — but both must complete
    the same dissemination task under the same attack.
    """
    scenario = golden_scenario("drum")
    fast = RoundSimulator(scenario, seed=7).run()
    naive = RoundSimulator(scenario, seed=7, naive=True).run()
    assert fast.final_coverage() == 1.0
    assert naive.final_coverage() == 1.0
    assert int(fast.counts[0]) == int(naive.counts[0]) == 1


def test_default_signature_registry_not_grown_by_exact_runs():
    """Regression: exact-engine runs must not leak into the module-global
    signature registry (it used to grow one entry per signed message for
    the life of the process)."""
    before = len(default_registry())
    for protocol, seed in CASES.items():
        RoundSimulator(golden_scenario(protocol), seed=seed).run()
    assert len(default_registry()) == before


#: (protocol, n, x) -> (rounds, packets_allocated, channels_created,
#: packets_flooded) for ``RoundSimulator(op_count_scenario(...), seed=42)``.
#: ``packets_allocated`` is valid protocol traffic: every sent packet
#: minus the attacker's fabricated flood, which the bulk path counts
#: without allocating.  Literal equality, so a change that opens more
#: channels or sends more packets for the same trace fails here.
OP_COUNTS = {
    ("drum", 60, 64): (7, 1992, 864, 2688),
    ("push", 60, 64): (12, 2592, 54, 4608),
    ("pull", 60, 64): (5, 1823, 1134, 1920),
    ("drum-no-random-ports", 60, 64): (14, 3948, 162, 5376),
    ("drum-shared-bounds", 60, 64): (6, 2264, 1922, 2304),
    ("drum", 120, 128): (7, 3937, 1728, 10752),
    ("push", 120, 128): (18, 7776, 108, 27648),
    ("pull", 120, 128): (18, 12998, 7884, 27648),
}


def op_count_scenario(protocol: str, n: int, x: float) -> Scenario:
    """10 % of the group attacked at rate ``x``, as in Figure 3."""
    return Scenario(
        protocol=protocol,
        n=n,
        malicious_fraction=0.1,
        attack=AttackSpec(alpha=0.1, x=float(x)),
        max_rounds=400,
    )


@pytest.mark.parametrize(
    "protocol,n,x", sorted(OP_COUNTS), ids=lambda v: str(v)
)
def test_op_counts_pinned(protocol, n, x):
    sim = RoundSimulator(op_count_scenario(protocol, n, x), seed=42)
    result = sim.run()
    flooded = sim.attacker.injected_total
    assert (
        len(result.counts) - 1,
        sim.network.sent_packets - flooded,
        sim.network.channels_opened,
        flooded,
    ) == OP_COUNTS[(protocol, n, x)]


class TestDigestMemo:
    """A signed message's body is digested once, however far it relays."""

    HOPS = 64

    @pytest.fixture
    def digests(self, monkeypatch):
        calls = []
        real = signatures.payload_digest

        def counting(payload):
            calls.append(payload)
            return real(payload)

        monkeypatch.setattr(signatures, "payload_digest", counting)
        return calls

    def relay(self, memoised: bool) -> None:
        keys = KeyPair(owner=0)
        registry = SignatureRegistry()
        message = DataMessage(msg_id=(0, 1), source=0, payload=b"M" * 256)

        def digest():
            return {"digest": message.body_digest()} if memoised else {}

        signature = signatures.sign(
            keys.private, message.signed_body(), registry=registry, **digest()
        )
        for _ in range(self.HOPS):
            assert signatures.verify(
                keys.public, message.signed_body(), signature,
                registry=registry, **digest(),
            )

    def test_memoised_relay_digests_once(self, digests):
        self.relay(memoised=True)
        assert len(digests) == 1

    def test_unmemoised_relay_digests_every_hop(self, digests):
        self.relay(memoised=False)
        assert len(digests) == self.HOPS + 1

    def test_aged_copies_share_the_memo(self, digests):
        message = DataMessage(msg_id=(0, 1), source=0, payload=b"M")
        first = message.body_digest()
        older = message.aged(3)
        assert older.round_counter == message.round_counter + 3
        assert older.body_digest() == first
        assert len(digests) == 1
