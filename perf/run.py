#!/usr/bin/env python3
"""The repository's one benchmark.

    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
        one run; the last stdout line is the JSON result
    python3 perf/run.py            full pass: every workload untraced,
                                   then traced; appends to the ledger
    python3 perf/run.py --agree    two interleaved sets of runs per
                                   workload must agree within the bounds
    python3 perf/run.py --quick    the whole harness at toy sizes

See ``perf/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent


def _bootstrap() -> None:
    """Put this checkout's ``src/`` first on the path, or refuse: the
    benchmark measures the program beside it, never an installed one."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perf/run.py: no program to measure: {src}/repro is missing")
    sys.path.insert(0, str(src))
    import repro

    if src not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perf/run.py: imported repro from {repro.__file__}, not {src}")


_bootstrap()

import harness  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402


# -- one run -----------------------------------------------------------------


def run_untraced(name: str, seed: int, seconds: float, toy: bool) -> dict:
    """Every end-to-end metric of one workload, tracing off."""
    setup_s = harness.sample_setup(
        name, seed, toy, 2 if toy else harness.SETUP_SAMPLES
    )
    log = harness.OpLog()
    rates, cpu_us, digests = [], [], []
    with harness.scratch() as tmp:
        w = workloads.REGISTRY[name](seed, seconds, toy, tmp)
        w.ready()
        first = w.warmup()
        if first is not None:
            outcome = w.account(first, pool=False)
            log.count(outcome.attempted, outcome.failed, outcome.errors)
        for i in range(1, w.timed_ops + 1):
            try:
                raw, wall, cpu = harness.timed(lambda: w.op(i))
                outcome = w.account(raw)
            except Exception as exc:  # the run reports it and goes on
                log.count(0, 0, [f"op {i} raised {exc!r}"])
                continue
            log.count(outcome.attempted, outcome.failed, outcome.errors)
            rates.append(outcome.node_rounds / wall)
            cpu_us.append(cpu / outcome.node_rounds * 1e6)
            digests.append(outcome.digest)
    if not rates:
        raise RuntimeError(f"every op failed: {log.errors}")
    values = {
        "setup_s": setup_s,
        "node_rounds_per_s": metrics.best_quarter(rates, "higher"),
        "cpu_us_per_node_round": metrics.best_quarter(cpu_us, "lower"),
        "delivery_rounds_p50": w.deliveries.quantile(50),
        "delivery_rounds_p90": w.deliveries.quantile(90),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    digest = None
    if all(digests):
        digest = hashlib.sha256("\n".join(digests).encode()).hexdigest()
    return _result(values, log, digest)


def run_traced(name: str, seed: int, seconds: float, toy: bool) -> dict:
    """Every per-layer metric.  ``name``'s layers are measured at the
    workload's own size and its spans written out; the other workloads'
    layers are measured at toy size, so that one traced run reports
    every declared metric without costing four runs."""
    values = {}
    home_log = None
    # Fixed order: fig3a's executor probes fork, which must happen
    # before the aio stack has started any timer thread.
    for other in metrics.WORKLOAD_NAMES:
        home = other == name
        spans = harness.Spans()
        with harness.scratch() as tmp:
            w = workloads.REGISTRY[other](
                seed, seconds if home else metrics.NOMINAL_SECONDS,
                toy or not home, tmp,
            )
            w.ready()
            layer_values, log = w.layers(spans)
        values.update(layer_values)
        if home:
            home_log = log
            values.update(log.harness_metrics())
            spans.write(harness.OUT / f"{name}.spans.jsonl")
    return _result(values, home_log, None)


def _result(values: dict, log: harness.OpLog, digest) -> dict:
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    errors = list(log.errors) + [f"{k} is not finite" for k in bad]
    return {
        "correct": not errors,
        "attempted": log.attempted,
        "failed": log.failed,
        "values": values,
        "errors": errors,
        "digest": digest,
    }


def report(name: str, seed: int, trace: int, result: dict) -> int:
    """Print every metric by name and unit, then the contract's line."""
    print(f"# {name} seed={seed} trace={trace}")
    for key, value in result["values"].items():
        print(f"{key} {value:.6g} {metrics.UNITS[key]}")
    for error in result["errors"]:
        print(f"error: {error}")
    if result["digest"]:
        print(f"result_digest {result['digest']}")
    if any(not math.isfinite(v) for v in result["values"].values()):
        return 1  # not expressible as a result line
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            key: {"value": value, "unit": metrics.UNITS[key]}
            for key, value in result["values"].items()
        },
    }))
    return 0


# -- drivers over subprocess runs --------------------------------------------


def invoke(name: str, seed: int, trace: int, toy: bool = False,
           seconds: int = metrics.NOMINAL_SECONDS) -> dict:
    """One run in its own interpreter; returns the parsed result line
    plus ``digest`` when the run printed one."""
    command = [
        sys.executable, str(PERF / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if toy:
        command.append("--toy")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(command)} exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["digest"] = next(
        (l.split()[1] for l in lines if l.startswith("result_digest ")), None
    )
    result["errors"] = [l for l in lines if l.startswith("error: ")]
    return result


def _print_metrics(result: dict, keep=None) -> dict:
    values = {}
    for key, entry in result["metrics"].items():
        if keep is None or keep(key):
            values[key] = entry["value"]
            print(f"  {key:42s} {entry['value']:14.6g} {entry['unit']}")
    return values


def full_pass(seed: int) -> int:
    """Each workload untraced then traced, one subprocess at a time;
    every metric printed and appended to the ledger."""
    status = 0
    for name in metrics.WORKLOAD_NAMES:
        for trace in (0, 1):
            result = invoke(name, seed, trace)
            print(
                f"{name} trace={trace} correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
            for error in result["errors"]:
                print(f"  {error}")
            # A traced run also carries the other workloads' layers at
            # toy size; the ledger keeps a metric only from its own.
            values = _print_metrics(
                result,
                None if trace == 0 else
                lambda key: metrics.HOME[key] in (name, "harness"),
            )
            harness.append_ledger(name, workloads.REGISTRY[name].n, values)
            if not result["correct"] or result["failed"]:
                status = 1
    return status


def agree(sets: int) -> int:
    """Two interleaved sets (A B A B ...) of untraced runs per workload
    must agree: set medians within each metric's bound, and result
    digests equal on the seeded workloads."""
    status = 0
    header = (
        f"{'workload':12s} {'metric':22s} {'median A':>13s} "
        f"{'median B':>13s} {'diff':>8s} {'bound':>6s}"
    )
    print(header)
    for name in metrics.WORKLOAD_NAMES:
        runs = {"A": [], "B": []}
        for seed in range(1, sets + 1):
            for side in "AB":
                runs[side].append(invoke(name, seed, 0))
        for metric in metrics.END_TO_END:
            a, b = (
                statistics.median(
                    r["metrics"][metric.name]["value"] for r in runs[side]
                )
                for side in "AB"
            )
            diff = abs(b - a) / a
            verdict = "" if diff <= metric.bound else "  DISAGREE"
            if verdict:
                status = 1
            print(
                f"{name:12s} {metric.name:22s} {a:13.6g} {b:13.6g} "
                f"{diff:8.4f} {metric.bound:6.2f}{verdict}"
            )
        digests = [(r["digest"] for r in runs[side]) for side in "AB"]
        pairs = list(zip(*digests))
        if name != "aio_stream":
            same = all(a is not None and a == b for a, b in pairs)
            print(f"{name:12s} result_digest equal on every seed: {same}")
            if not same:
                status = 1
        if any(not r["correct"] or r["failed"] for s in runs.values() for r in s):
            print(f"{name:12s} a run was incorrect or had failures")
            status = 1
    return status


def quick() -> int:
    """The whole harness at toy sizes: the manifest, then every
    workload in both trace modes."""
    started = time.perf_counter()
    problems = metrics.check_manifest(ROOT / "BENCHMARK.json")
    for name in metrics.WORKLOAD_NAMES:
        for trace, declared in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
            result = invoke(name, 1, trace, toy=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m.name: m.unit for m in declared}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics differ from the manifest")
            zero = [
                k for k, v in result["metrics"].items()
                if v["value"] == 0 and k != "sim.executor.pickled_result_bytes"
            ]
            if zero:
                problems.append(f"{name} trace={trace}: zero-valued {zero}")
            if not result["correct"] or result["failed"]:
                problems.append(
                    f"{name} trace={trace}: correct={result['correct']} "
                    f"failed={result['failed']} {result['errors']}"
                )
            print(
                f"{name} trace={trace}: {len(got)} metrics, "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
    print("toy sizes: fig3a_sweep's statistical shape checks were skipped")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"quick pass took {time.perf_counter() - started:.1f} s")
    return 1 if problems else 0


def main(argv=None) -> int:
    """Run, then stop and reap every child process on every way out."""
    harness.adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return _main(argv)
    finally:
        workloads.close_pool()
        harness.stop_children()


def _main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=metrics.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=metrics.NOMINAL_SECONDS,
        help="sizes the op counts (nominal at %(default)s); never a deadline",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes")
    parser.add_argument("--setup-only", choices=metrics.WORKLOAD_NAMES,
                        help="reach the workload's ready state and exit")
    parser.add_argument("--agree", action="store_true")
    parser.add_argument("--sets", type=int, default=3,
                        help="runs per set for --agree (default 3)")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        with harness.scratch() as tmp:
            workloads.REGISTRY[args.setup_only](
                args.seed, args.seconds, args.toy, tmp
            ).ready()
        return 0
    if args.quick:
        return quick()
    if args.agree:
        if args.sets < 3:
            parser.error("--agree needs at least 3 runs per set")
        return agree(args.sets)
    if args.workload is None:
        return full_pass(args.seed)
    run = run_traced if args.trace else run_untraced
    result = run(args.workload, args.seed, args.seconds, args.toy)
    return report(args.workload, args.seed, args.trace, result)


if __name__ == "__main__":
    sys.exit(main())
