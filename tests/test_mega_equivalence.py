"""Statistical equivalence of the mega engine against the dense engines.

The mega engine re-derives every per-round distribution of the fast
engine on a packed layout and a different stream order, so the pinning
is statistical (:mod:`equivalence`), not byte-level:

- mega-vs-fast must pass the three-test equivalence gate at n = 10³
  (two protocols) and n = 10⁴ (the paper's attacked-drum headline);
- a shared crash/partition fault plan must leave both engines with the
  same reachable set and full residual reliability;
- seeded mega aggregates for all five protocol variants at n = 10³ are
  pinned to golden envelope files — regenerating one (only when a
  change is *meant* to alter seeded output) is the test body itself:
  run the case and write ``encode_envelope`` + newline to
  ``tests/golden/mega_<protocol>.json``;
- the goldens are one 4096-node block with no faults and no churn, so
  seeded envelopes at n = 12 000 (three blocks; four under churn) are
  pinned by hash for the multi-block accumulation, the shared-bounds
  handshake, the well-known reply port, perturbation, a fixed horizon,
  a combined fault plan and churn, alone and together.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import equivalence as eq
from repro.adversary.attacks import AttackSpec
from repro.api import encode_envelope
from repro.sim.fast import run_fast
from repro.sim.mega import run_mega
from repro.sim.scenario import Scenario

GOLDEN_DIR = Path(__file__).parent / "golden"

#: protocol -> pinned seed for the golden aggregates (distinct seeds so
#: no two golden runs can share a randomness stream).
GOLDEN_CASES = {
    "drum": 9111,
    "push": 9222,
    "pull": 9333,
    "drum-no-random-ports": 9444,
    "drum-shared-bounds": 9555,
}

MULTI_BLOCK_CHAOS = (
    "crash@3:0.1;partition@2-6:0.4;stall@2-5:0.1;gilbert:0.01,0.3,0.05,0.25"
)
MULTI_BLOCK_CHURN = "join@2:0.1;leave@4:0.05;expel@5:0.05"

PERTURBED = dict(perturbed_fraction=0.2, perturbation_prob=0.5)

#: case -> (Scenario fields over the attacked n = 12 000 drum default,
#: horizon, sha256 of the seeded envelope).  Regenerate only when
#: seeded output is *meant* to change: the failing assertion prints the
#: new hash.
MULTI_BLOCK_CASES = {
    "drum": (
        {}, None,
        "937b2a0d3113db3f55707841e37d6b442c7e4e12f892e854eb4a3fedbce969b3",
    ),
    "shared-bounds": (
        dict(protocol="drum-shared-bounds"), None,
        "53e307dca783558d2c92257123d17bfd3fc9a687b87826e3541c7fa2b810a642",
    ),
    "no-random-ports": (
        dict(protocol="drum-no-random-ports"), None,
        "c6a8bedcd85b013cf939e94b80f805e9a652763c80b108bd3031d6f95f8756c8",
    ),
    "chaos": (
        dict(faults=MULTI_BLOCK_CHAOS), None,
        "4804e3762b733a7001180d44c918bdd0edeae45376ada4d116f413fba29d1afc",
    ),
    "chaos-shared-bounds": (
        dict(protocol="drum-shared-bounds", faults=MULTI_BLOCK_CHAOS), None,
        "c3689e42a81a843cc08edc681006fe6ba1fae705c6f182a2d1c3c12db31401b2",
    ),
    "churn": (
        dict(faults=MULTI_BLOCK_CHURN), None,
        "3b62a33bfa4cd8775ad96459fc90b9a4a7ef92396cf8885faa9ce784dad77028",
    ),
    "shared-bounds-churn": (
        dict(protocol="drum-shared-bounds", faults=MULTI_BLOCK_CHURN), None,
        "2d635bba42be328bc4f179ebd7f70a7e86428a50fbc4684324fb97291d40b401",
    ),
    # The well-known reply port's attacked rows inside the churn loop,
    # with crash, stall and partition masks all live.
    "no-random-ports-churn-chaos": (
        dict(
            protocol="drum-no-random-ports",
            faults=MULTI_BLOCK_CHURN + ";" + MULTI_BLOCK_CHAOS,
        ),
        None,
        "698258b3e1b90cc2f0d12dd1317ad5533f2a3e027c05a644678764ac4cc51917",
    ),
    "perturbed": (
        PERTURBED, None,
        "ffbedad587278aff85facca7cb30d75b400ca5ec9d7bb4ec0223b7d91b0169bf",
    ),
    "perturbed-churn": (
        dict(PERTURBED, faults=MULTI_BLOCK_CHURN), None,
        "f25b1a2b10c4d01dc85b755b720cef4f16a901dc951fd82452a304ace751364d",
    ),
    "horizon": (
        {}, 12,
        "1f59d3d2a60ee32712af7bbbef8f71811268b155dbf432f481c8ce6a8b9cb081",
    ),
}


def attacked_scenario(n, protocol="drum", faults=None, **kwargs):
    return Scenario(
        protocol=protocol,
        n=n,
        malicious_fraction=0.1,
        attack=AttackSpec(alpha=0.1, x=64.0),
        max_rounds=200,
        faults=faults,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# the equivalence gate, mega vs fast
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", ["drum", "pull"])
def test_mega_matches_fast_at_n_1000(protocol):
    scenario = attacked_scenario(1000, protocol)
    fast = run_fast(scenario, 120, seed=501)
    mega = run_mega(scenario, 120, seed=502)
    report = eq.compare_results(fast, mega)
    assert report.passed, report.describe()


def test_mega_matches_fast_at_n_10000():
    scenario = attacked_scenario(10_000)
    fast = run_fast(scenario, 40, seed=601)
    mega = run_mega(scenario, 40, seed=602)
    report = eq.compare_results(fast, mega)
    assert report.passed, report.describe()


def test_gate_would_catch_a_wrong_protocol():
    """Negative control at the same scale: the gate that blesses
    mega-vs-fast must fail when the engines simulate different
    protocols behind an identical scenario label."""
    scenario = attacked_scenario(1000)
    fast = run_fast(scenario, 120, seed=501)
    disguised = run_mega(attacked_scenario(1000, "pull"), 120, seed=502)
    disguised.scenario = scenario
    report = eq.compare_results(fast, disguised)
    assert not report.passed, report.describe()


# ---------------------------------------------------------------------------
# fault-plan parity
# ---------------------------------------------------------------------------

def test_permanent_crash_parity_is_exact():
    """A permanent crash pins the reachable set deterministically, and
    with lossless links the run only ends once every reachable process
    holds M — so both engines must report the *same* per-run holder
    counts (the reachable-set size) and full residual reliability."""
    scenario = Scenario(
        protocol="drum", n=1000, loss=0.0, max_rounds=120,
        faults="crash@2:0.2",
    )
    fast = run_fast(scenario, 8, seed=701)
    mega = run_mega(scenario, 8, seed=702)
    assert fast.reachable_holders is not None
    assert mega.reachable_holders is not None
    np.testing.assert_array_equal(
        fast.reachable_holders, mega.reachable_holders
    )
    np.testing.assert_array_equal(fast.residual_reliability(), 1.0)
    np.testing.assert_array_equal(mega.residual_reliability(), 1.0)
    assert fast.counts[:, -1].max() <= scenario.num_alive_correct
    assert mega.counts[:, -1].max() <= scenario.num_alive_correct


@pytest.mark.parametrize(
    "faults", ["partition@1-12:0.4", "crash@2-10:0.3"]
)
def test_healed_fault_parity_is_statistical(faults):
    """Healed faults end at the coverage-threshold early exit, so the
    exact holder count is a random variable — but both engines must
    clear the threshold in every run and land on the same residual
    reliability to within Monte-Carlo noise."""
    scenario = Scenario(
        protocol="drum", n=1000, loss=0.0, max_rounds=120, faults=faults
    )
    fast = run_fast(scenario, 30, seed=711)
    mega = run_mega(scenario, 30, seed=712)
    resid_fast = fast.residual_reliability()
    resid_mega = mega.residual_reliability()
    assert np.all(resid_fast >= scenario.threshold)
    assert np.all(resid_mega >= scenario.threshold)
    assert abs(resid_fast.mean() - resid_mega.mean()) < 0.005


def test_fault_plan_parity_is_statistical_too():
    """Beyond the deterministic residual check, the delivery-round
    distribution under a mid-run crash must match across engines."""
    scenario = Scenario(
        protocol="drum",
        n=1000,
        loss=0.01,
        max_rounds=200,
        faults="crash@3:0.1",
    )
    fast = run_fast(scenario, 100, seed=801)
    mega = run_mega(scenario, 100, seed=802)
    _, ks_p = eq.ks_2samp(
        eq.delivery_round_samples(fast), eq.delivery_round_samples(mega)
    )
    assert ks_p > eq.DEFAULT_ALPHA


# ---------------------------------------------------------------------------
# golden aggregates
# ---------------------------------------------------------------------------

def golden_render(result) -> str:
    return encode_envelope(result) + "\n"


@pytest.mark.parametrize("protocol", sorted(GOLDEN_CASES))
def test_golden_mega_aggregates(protocol):
    result = run_mega(
        attacked_scenario(1000, protocol), 3, seed=GOLDEN_CASES[protocol]
    )
    path = GOLDEN_DIR / f"mega_{protocol.replace('-', '_')}.json"
    assert golden_render(result) == path.read_text(), (
        f"seeded mega {protocol} aggregates diverged from {path.name}; "
        "the packed engine no longer reproduces its recorded behaviour"
    )


def test_golden_files_are_mega_envelopes():
    for protocol in GOLDEN_CASES:
        path = GOLDEN_DIR / f"mega_{protocol.replace('-', '_')}.json"
        blob = json.loads(path.read_text())
        assert blob["kind"] == "mega"
        assert blob["data"]["mega"]["shard_nodes"] > 0


@pytest.mark.parametrize("case", sorted(MULTI_BLOCK_CASES))
def test_multi_block_mega_envelopes_are_pinned(case):
    fields, horizon, pinned = MULTI_BLOCK_CASES[case]
    result = run_mega(
        attacked_scenario(12_000, **fields), 2, seed=4242, horizon=horizon
    )
    assert result.blocks >= 3
    digest = hashlib.sha256(golden_render(result).encode()).hexdigest()
    assert digest == pinned, (
        f"seeded multi-block mega {case} envelope diverged from its "
        "pinned hash; the packed engine no longer reproduces its "
        "recorded behaviour"
    )
