"""Section 6 asymptotics, measured: Drum O(log n) vs pull Θ(n).

The paper's asymptotic analysis says a DoS adversary who concentrates a
budget proportional to n on the source leaves Drum's propagation time
logarithmic in n, while pull-only gossip needs rounds linear in n
before the source ever wins a pull-request slot against the flood.
This benchmark produces the first *empirical* version of that figure,
on the packed mega engine (:mod:`repro.sim.mega`) across
n ∈ {10³, 10⁴, 10⁵, 10⁶}:

- the **scale sweep** (``repro.sweep.scale_grid``): drum vs pull mean
  rounds-to-threshold under the single-victim targeted attack
  (α = 1/n, x = budget·n), resumable through the shared sweep store;
- the **mega spot run**: one seeded n = 10⁶ drum run, twice, asserting
  byte-identical repeats and the packed engine's memory ceiling
  (``peak_state_bytes`` plus process RSS);
- the **equivalence gate**: the statistical harness
  (``tests/equivalence.py``) pins mega against the dense fast engine
  at n = 10³ and n = 10⁴ before any mega-only scale is trusted.

Usage::

    PYTHONPATH=src python benchmarks/bench_asymptotic_scale.py --reduced --check

``--reduced`` caps the sweep at n = 10⁵ with a handful of runs per
point (the n = 10⁶ spot run always happens — it *is* the acceptance
criterion); ``--check`` exits non-zero when any gate fails.  Results
land in ``benchmarks/results/BENCH_mega.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import RESULTS_DIR, mc_kwargs, runs, sweep_runner

sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))

import equivalence as eq

from repro.adversary.attacks import AttackSpec
from repro.sim.mega import run_mega
from repro.sim.runner import monte_carlo
from repro.sim.scenario import Scenario
from repro.sweep import scale_grid

NS_FULL = [10**3, 10**4, 10**5, 10**6]
NS_REDUCED = [10**3, 10**4, 10**5]

#: Sweep budget per node.  Deliberately gentler than the spot run's so
#: pull is *uncensored* at n = 10³ — the superlinear growth is then
#: visible in the data instead of saturating at max_rounds everywhere.
SWEEP_BUDGET = 1.0
SWEEP_SEED = 97
MAX_ROUNDS = 400

#: The n = 10⁶ acceptance run: full Section-6 pressure (8 fabricated
#: messages per node per round, all aimed at the source).
SPOT_N = 10**6
SPOT_BUDGET = 8.0
SPOT_SEED = 777

#: Ceilings for the spot run.  The packed engine holds ~50 MB of state
#: at n = 10⁶ (bitmaps are n/8 bytes; the sender stash dominates);
#: the RSS ceiling additionally covers the interpreter + numpy.
PEAK_STATE_CEILING = 128 * 1024 * 1024
RSS_CEILING = 1024 * 1024 * 1024

#: Drum's log-growth ceiling: mean rounds must stay under this multiple
#: of log2(n) at every sweep point (measured ≈ 0.7–1.1 · log2 n).
DRUM_LOG_FACTOR = 2.5

#: Equivalence-gate scales: (n, runs-per-engine, fast seed, mega seed).
EQUIV_CASES = [(10**3, 120, 501, 502), (10**4, 40, 601, 602)]


def run_scale_sweep(ns, sweep_runs):
    cells = scale_grid(
        ["drum", "pull"],
        ns,
        budget_per_node=SWEEP_BUDGET,
        runs=sweep_runs,
        seed=SWEEP_SEED,
        max_rounds=MAX_ROUNDS,
    ).cells
    series = sweep_runner().run("asymptotic_scale", cells).series()
    return {
        "ns": list(ns),
        "runs_per_point": sweep_runs,
        "budget_per_node": SWEEP_BUDGET,
        "mean_rounds": {name: list(map(float, series[name])) for name in series},
    }


def run_spot() -> dict:
    scenario = Scenario(
        protocol="drum",
        n=SPOT_N,
        attack=AttackSpec(alpha=1.0 / SPOT_N, x=SPOT_BUDGET * SPOT_N),
        max_rounds=MAX_ROUNDS,
    )
    first = run_mega(scenario, 1, seed=SPOT_SEED)
    second = run_mega(scenario, 1, seed=SPOT_SEED)
    rss_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return {
        "n": SPOT_N,
        "budget_per_node": SPOT_BUDGET,
        "mean_rounds": float(first.mean_rounds()),
        "censored_runs": int(first.censored_runs()),
        "repeat_identical": bool(
            first.counts.tobytes() == second.counts.tobytes()
        ),
        "peak_state_bytes": int(first.peak_state_bytes),
        "rss_bytes": int(rss_bytes),
        "shard_nodes": int(first.shard_nodes),
        "blocks": int(first.blocks),
    }


def run_equivalence() -> list:
    reports = []
    for n, pair_runs, seed_fast, seed_mega in EQUIV_CASES:
        scenario = Scenario(
            protocol="drum",
            n=n,
            malicious_fraction=0.1,
            attack=AttackSpec(alpha=0.1, x=64.0),
            max_rounds=200,
        )
        fast = monte_carlo(
            scenario, pair_runs, seed=seed_fast, engine="fast", **mc_kwargs()
        )
        mega = monte_carlo(
            scenario, pair_runs, seed=seed_mega, engine="mega", **mc_kwargs()
        )
        report = eq.compare_results(fast, mega)
        reports.append(
            {
                "n": n,
                "runs": pair_runs,
                "passed": bool(report.passed),
                "detail": report.describe(),
            }
        )
    return reports


def check(results) -> list:
    failures = []
    sweep = results["sweep"]
    ns = sweep["ns"]
    drum = sweep["mean_rounds"]["drum"]
    pull = sweep["mean_rounds"]["pull"]
    for n, rounds in zip(ns, drum):
        ceiling = DRUM_LOG_FACTOR * math.log2(n)
        if rounds > ceiling:
            failures.append(
                f"drum n={n}: {rounds:.1f} rounds exceeds the "
                f"O(log n) ceiling {ceiling:.1f}"
            )
    for i in range(1, len(ns)):
        drum_ratio = drum[i] / drum[i - 1]
        pull_ratio = pull[i] / pull[i - 1]
        if pull_ratio <= drum_ratio:
            failures.append(
                f"growth ordering n={ns[i - 1]}→{ns[i]}: pull grew "
                f"{pull_ratio:.2f}x, not faster than drum {drum_ratio:.2f}x"
            )
    for n, d_rounds, p_rounds in zip(ns, drum, pull):
        if p_rounds <= 3.0 * d_rounds:
            failures.append(
                f"separation n={n}: pull {p_rounds:.1f} not well above "
                f"drum {d_rounds:.1f}"
            )
    spot = results["spot"]
    if not spot["repeat_identical"]:
        failures.append("spot n=10^6: repeated seeded runs differ")
    if spot["censored_runs"]:
        failures.append("spot n=10^6: drum failed to reach the threshold")
    if spot["peak_state_bytes"] > PEAK_STATE_CEILING:
        failures.append(
            f"spot n=10^6: engine state {spot['peak_state_bytes']} B "
            f"over the {PEAK_STATE_CEILING} B ceiling"
        )
    if spot["rss_bytes"] > RSS_CEILING:
        failures.append(
            f"spot n=10^6: RSS {spot['rss_bytes']} B over the "
            f"{RSS_CEILING} B ceiling"
        )
    for gate in results["equivalence"]:
        if not gate["passed"]:
            failures.append(
                f"equivalence n={gate['n']}: {gate['detail']}"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--reduced", action="store_true",
        help="CI smoke: sweep to n=10^5 with few runs (spot run stays 10^6)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail on any ceiling, ordering, determinism, or gate breach",
    )
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    ns = NS_REDUCED if args.reduced else NS_FULL
    sweep_runs = 5 if args.reduced else runs()
    results = {
        "sweep": run_scale_sweep(ns, sweep_runs),
        "equivalence": run_equivalence(),
        "spot": run_spot(),
    }
    print(json.dumps(results, indent=2))

    out = args.output or RESULTS_DIR / "BENCH_mega.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out}")

    if args.check:
        failures = check(results)
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print(
            "check passed: drum is O(log n), pull is not, n=10^6 fits "
            "the ceiling, engines statistically equivalent"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
