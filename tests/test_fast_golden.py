"""Cross-commit byte pins for the vectorised engine.

``tests/golden/`` pins the exact and mega engines; these pin seeded
``engine="fast"`` envelopes by hash, so a change to ``sim.fast`` or
``sim.views`` that adds, drops or reorders one RNG draw fails here.
Every case runs serially and on two workers (70 runs = two shards), so
the same pin also holds the worker-count invariance.  Regenerate only
when seeded output is *meant* to change: the failing assertion prints
the new hash.
"""

import hashlib
import warnings

import pytest

from repro.adversary.attacks import AttackSpec
from repro.api import encode_envelope
from repro.sim.runner import monte_carlo
from repro.sim.scenario import Scenario

RUNS = 70
SEED = 2222

ATTACK = AttackSpec(alpha=0.1, x=64.0)
CHAOS = "crash@3:0.1;partition@2-6:0.4;stall@2-5:0.1;gilbert:0.01,0.3,0.05,0.25"
CHURN = "join@2:0.1;leave@4:0.05;expel@5:0.05"


def attacked(protocol="drum", n=120, **kwargs):
    fields = dict(
        protocol=protocol, n=n, malicious_fraction=0.1, attack=ATTACK,
        max_rounds=200,
    )
    fields.update(kwargs)
    return fields


#: case -> (Scenario fields, horizon, sha256 of the seeded envelope).
CASES = {
    "drum": (
        attacked("drum"), None,
        "d4f3baf08dc23630ce2248e2c16e6c03e8e8c24c6cde88ea0550e94f7cbe8ba8",
    ),
    "push": (
        attacked("push"), None,
        "44b5c4457223eb65b1e3c805be24a4253b2411c5ba89b5a38c10d6774bb6323d",
    ),
    "pull": (
        attacked("pull"), None,
        "24b480848450a945664cbb10da02b14e56bebbf5d7ee7df3d37471f97108eeb8",
    ),
    "drum-no-random-ports": (
        attacked("drum-no-random-ports"), None,
        "825927d9dd48df54f133801d33a4aa8f267158550b47b3060f561dbd194bf2dd",
    ),
    "drum-shared-bounds": (
        attacked("drum-shared-bounds"), None,
        "204b3a9d1152bb8c2ee53bd68ab20562404f33994f8c3ac99b4414a1fea804f2",
    ),
    "drum-n1000-x128": (
        attacked("drum", n=1000, attack=AttackSpec(alpha=0.1, x=128.0)), None,
        "04718529ef1e973e4b4072ccd42024897a513b1956b2682a7ac304fa0d1e243a",
    ),
    "perturbed": (
        attacked("drum", perturbed_fraction=0.2, perturbation_prob=0.5), None,
        "4c09bffd575c9c99e3c9f8b0d46953713055bfcbc801623b021ed49c840cff59",
    ),
    "chaos": (
        attacked("drum", faults=CHAOS), None,
        "682f80e05594ddbe682266d5684f053dcffa32d3e10cfa676fdd1069407970bb",
    ),
    "chaos-shared-bounds": (
        attacked("drum-shared-bounds", faults=CHAOS), None,
        "3ef410a3e5f82d92992d62fe7ca00403e53a3ca16da4cb4af621fb59a63ca1f2",
    ),
    "churn": (
        attacked("drum", faults=CHURN), None,
        "bf8ec6c2b049e156d17362d592d433473bdc3dec689fad22deac7a43f8ddee00",
    ),
    "churn-shared-bounds": (
        attacked("drum-shared-bounds", faults=CHURN), None,
        "7b1171b1d41557d6209eee9820c6a2a9704a049c7c46a92e8b30655eb4cf59ca",
    ),
    "churn-no-random-ports": (
        attacked("drum-no-random-ports", faults=CHURN + ";" + CHAOS), None,
        "5762e9547d239367d738afc967a2caf329b67ddd430911ba5e4822b1e1047d42",
    ),
    "pull-churn": (
        attacked("pull", faults=CHURN), None,
        "24e900a799057a24fbe7fa4681ac2ec75e5f4bd1572525f63aaef483b013393f",
    ),
    "push-churn": (
        attacked("push", faults=CHURN), None,
        "fb7dbf12310b76968aa2c8aa5642869b028eaba383ea1ebe22b5cf52345af998",
    ),
    "perturbed-churn": (
        attacked("drum", perturbed_fraction=0.2, perturbation_prob=0.5,
                 faults=CHURN), None,
        "1503323c2ee12ddf28234e2647fcf569d91d2f3469cd8642d1871bfb4ec757cc",
    ),
    # v·(v−1) ≥ n−1: views come from the permutation branch.
    "dense-fan-out": (
        dict(protocol="drum", n=12, fan_out=4, loss=0.05), None,
        "4ca8fbb8100fafefee8a20dc595c7f710e4f2dd6a41ad32ba0a1d0a39cfcd914",
    ),
    "dense-fan-out-churn": (
        dict(protocol="drum", n=14, fan_out=4, loss=0.05,
             faults="join@2:0.2;leave@4:0.1"), None,
        "7eb5d6d28877db2128ac19021115a985fb0c3f406046e1064c9e2285b0668d0a",
    ),
    "horizon": (
        attacked("drum"), 12,
        "1091b37c13323bda9e7606f6944a7cb14ac92e809b663c1c5f70bd74321047b7",
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_seeded_fast_envelopes_are_pinned(case, workers):
    fields, horizon, pinned = CASES[case]
    result = monte_carlo(
        Scenario(**fields), RUNS, seed=SEED, engine="fast",
        horizon=horizon, workers=workers,
    )
    digest = hashlib.sha256(
        (encode_envelope(result) + "\n").encode()
    ).hexdigest()
    assert digest == pinned, (
        f"seeded fast {case} envelope diverged from its pinned hash "
        f"(workers={workers}); the vectorised engine no longer "
        "reproduces its recorded behaviour"
    )


def test_all_nan_metrics_encode_without_warnings():
    # Chaos crashes 10 % of the group for good, so no run reaches the
    # threshold and every run's rounds_to_heal is NaN; the envelope
    # writes None for it without numpy's empty-slice warning, and its
    # bytes stay pinned.
    fields, horizon, pinned = CASES["chaos"]
    result = monte_carlo(Scenario(**fields), RUNS, seed=SEED, engine="fast")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = encode_envelope(result) + "\n"
    assert result.to_dict()["metrics"]["rounds_to_heal"] is None
    assert hashlib.sha256(text.encode()).hexdigest() == pinned
