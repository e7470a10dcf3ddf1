"""The benchmark's manifest and estimators.

Everything ``BENCHMARK.json`` declares is declared here first —
workloads, end-to-end metrics with their regression bounds, per-layer
metrics with the workload whose traced run owns them — and
:func:`check_manifest` fails when the two disagree.  The estimators
below are the only statistics the harness applies to raw samples.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence

import numpy as np

#: What ``--seconds`` is sized against: at this value each workload runs
#: its nominal op count (see ``workloads.py``); other values scale the
#: counts proportionally.  Equal to ``run_seconds`` in BENCHMARK.json.
NOMINAL_SECONDS = 30

COMMAND = ["python3", "perf/run.py"]
PATHS = ["perf"]


class Workload(NamedTuple):
    name: str
    why: str


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    #: The workload whose traced run measures it at full size, or
    #: ``"harness"`` for the three every workload reports about itself.
    home: str


WORKLOADS = (
    Workload(
        "fig3a_sweep",
        "Figure 3(a) rate sweep at n=120 and n=1000 through SweepRunner "
        "and a fresh ResultStore: sim.fast plus orchestrator and store "
        "write path; mega, des and aio do nothing",
    ),
    Workload(
        "mega_1e6",
        "one drum run at n=10^6 on the packed engine: 51 MB of state "
        "leaves cache, so sim.mega's bit kernels dominate and per-call "
        "numpy overhead does not; carries peak_rss_mb",
    ),
    Workload(
        "des_stream",
        "stream experiment E (drum, n=100, x=64, shaped links) on the "
        "virtual clock: des.node/core/crypto, CPU-bound and "
        "bit-deterministic; bypasses faults.live and asyncio",
    ),
    Workload(
        "aio_stream",
        "the same E on the asyncio stack, open loop at 10 msg/s: wall "
        "clock, aio.env/aio.transport and every send through "
        "faults.live.FaultyTransport; des.node shared with des_stream",
    ),
)

# Bounds are set from the spread of ten runs on ten seeds (the check
# the benchmark must pass), not of repeats on one seed: seeded results
# repeat exactly there, but across seeds the delivery percentiles move
# 3-5 %, and on this shared 2-core box the timing metrics drift by more
# than a run lasts: aio_stream's CPU spread read 9-20 %, and two
# interleaved sets of des_stream runs once disagreed by 12 %.  Each
# bound is about three times the widest spread seen for its metric on
# any workload; perf/README.md has the tables.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("node_rounds_per_s", "node_rounds/s", "higher", 0.25),
    EndToEnd("cpu_us_per_node_round", "us", "lower", 0.25),
    EndToEnd("delivery_rounds_p50", "rounds", "lower", 0.20),
    EndToEnd("delivery_rounds_p90", "rounds", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10),
)

_F, _M, _D, _A = (w.name for w in WORKLOADS)

PER_LAYER = (
    # fig3a_sweep: should move node_rounds_per_s / cpu_us_per_node_round
    # there and nothing elsewhere.
    Layer("sim.fast.share", "ratio", "higher", _F),
    Layer("sweep.store.write_share", "ratio", "lower", _F),
    Layer("sweep.orchestrator.self_share", "ratio", "lower", _F),
    Layer("sim.fast.drum_ns_per_node_round", "ns", "lower", _F),
    Layer("sim.fast.push_ns_per_node_round", "ns", "lower", _F),
    Layer("sim.fast.pull_ns_per_node_round", "ns", "lower", _F),
    Layer("sim.fast.n120_ns_per_node_round", "ns", "lower", _F),
    Layer("sim.fast.n1000_ns_per_node_round", "ns", "lower", _F),
    Layer("sweep.store.encode_ms_per_cell", "ms", "lower", _F),
    Layer("sweep.store.decode_ms_per_cell", "ms", "lower", _F),
    Layer("sweep.store.bytes_per_cell", "B", "lower", _F),
    Layer("sweep.store.key_us", "us", "lower", _F),
    Layer("sweep.store.warm_sweep_ms", "ms", "lower", _F),
    Layer("sweep.store.rehydrate_sweep_ms", "ms", "lower", _F),
    Layer("obs.traced_overhead_fast", "ratio", "lower", _F),
    # Executor probes: no workload uses the pool, so these are predicted
    # to move no end-to-end metric today.
    Layer("sim.executor.pool_spawn_ms", "ms", "lower", _F),
    Layer("sim.executor.noop_task_us", "us", "lower", _F),
    Layer("sim.executor.shm_roundtrip_us", "us", "lower", _F),
    Layer("sim.executor.parallel_efficiency", "ratio", "higher", _F),
    Layer("sim.executor.pickled_result_bytes", "B", "lower", _F),
    # mega_1e6: node_rounds_per_s there, and peak_rss_mb.
    Layer("sim.mega.bit_get_ns", "ns", "lower", _M),
    Layer("sim.mega.bit_or_block_ns", "ns", "lower", _M),
    Layer("sim.mega.popcount_ns_per_kb", "ns", "lower", _M),
    Layer("sim.mega.mask_to_packed_ns", "ns", "lower", _M),
    Layer("sim.mega.cache_falloff", "ratio", "lower", _M),
    Layer("sim.mega.state_bytes_per_node", "B", "lower", _M),
    Layer("sim.mega.rounds_per_op", "rounds", "lower", _M),
    Layer("api.engines.dispatch_us", "us", "lower", _M),
    # des_stream: node_rounds_per_s there; core.* and crypto.* also move
    # cpu_us_per_node_round on aio_stream.
    Layer("des.engine.event_us", "us", "lower", _D),
    Layer("des.host_s_per_sim_s", "ratio", "lower", _D),
    Layer("des.node.us_per_delivery", "us", "lower", _D),
    Layer("crypto.sign_us", "us", "lower", _D),
    Layer("crypto.verify_us", "us", "lower", _D),
    Layer("crypto.seal_open_us", "us", "lower", _D),
    Layer("core.views.select_us", "us", "lower", _D),
    Layer("core.bounds.consume_us", "us", "lower", _D),
    Layer("api.envelope.encode_ms", "ms", "lower", _D),
    Layer("api.envelope.decode_ms", "ms", "lower", _D),
    Layer("obs.traced_overhead_des", "ratio", "lower", _D),
    Layer("obs.events_per_op", "count", "lower", _D),
    Layer("obs.jsonl_encode_us_per_event", "us", "lower", _D),
    # aio_stream: cpu_us_per_node_round there, delivery_rounds_* once
    # the loop lags; predicted no change on des_stream.
    Layer("aio.boot_ms", "ms", "lower", _A),
    Layer("aio.stop_ms", "ms", "lower", _A),
    Layer("aio.result_ms", "ms", "lower", _A),
    Layer("aio.cpu_busy_frac", "ratio", "lower", _A),
    Layer("aio.loop_lag_ms_p50", "ms", "lower", _A),
    Layer("aio.loop_lag_ms_p99", "ms", "lower", _A),
    Layer("aio.round_dilation", "ratio", "lower", _A),
    Layer("aio.generator_lag_ms_p99", "ms", "lower", _A),
    Layer("aio.first_delivery_ms", "ms", "lower", _A),
    Layer("aio.transport.send_us", "us", "lower", _A),
    Layer("faults.live.shaped_send_us", "us", "lower", _A),
    Layer("faults.live.delayed_per_node_round", "count", "lower", _A),
    Layer("obs.traced_overhead_aio", "ratio", "lower", _A),
    # Every workload, about its own run.
    Layer("harness.trace_overhead", "ratio", "lower", "harness"),
    Layer("harness.first_op_ratio", "ratio", "lower", "harness"),
    Layer("harness.op_wall_iqr_ratio", "ratio", "lower", "harness"),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)
BOUNDS = {m.name: m.bound for m in END_TO_END}
UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}
HOME = {m.name: m.home for m in PER_LAYER}


def layer_of(metric: str) -> str:
    """The ledger's ``layer`` column: the metric name minus its leaf."""
    return metric.rpartition(".")[0] or "end_to_end"


def manifest() -> dict:
    """The exact document ``BENCHMARK.json`` must hold."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": NOMINAL_SECONDS,
        "workloads": [w._asdict() for w in WORKLOADS],
        "end_to_end": [m._asdict() for m in END_TO_END],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def check_manifest(path: Path) -> List[str]:
    """Differences between ``BENCHMARK.json`` and this module."""
    try:
        declared = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{path}: {exc}"]
    wanted = manifest()
    problems = []
    for key in sorted(set(wanted) | set(declared)):
        if wanted.get(key) != declared.get(key):
            problems.append(f"BENCHMARK.json {key!r} differs from perf/metrics.py")
    return problems


# -- estimators --------------------------------------------------------------


def best_quarter(values: Sequence[float], better: str = "lower") -> float:
    """Mean of the best ⌈len/4⌉ values.

    Interference on a shared box only ever slows an op, so the best
    quarter estimates the undisturbed cost; the mean over it (rather
    than the single best) keeps one lucky sample from setting the value.
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values, reverse=(better == "higher"))
    keep = ordered[: math.ceil(len(ordered) / 4)]
    return sum(keep) / len(keep)


def iqr_ratio(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class Deliveries:
    """Per-process delivery times in rounds, pooled over ops.

    Round engines add coverage-curve increments (``add_curve``: the
    processes that first held the message during round r are spread
    linearly over (r-1, r]); stream engines add one latency per
    delivery (``add_latencies``).  Both state the population they were
    drawn from, so processes never reached count as +inf.
    """

    def __init__(self) -> None:
        self.population = 0
        self._per_round: Dict[int, int] = {}
        self._latencies: List[float] = []

    def add_curve(self, counts, population: int) -> None:
        """``counts``: (runs, rounds+1) holder counts; ``population``:
        processes per run that could receive (source excluded)."""
        counts = np.asarray(counts)
        gained = np.maximum(np.diff(counts, axis=1), 0).sum(axis=0)
        for r, g in enumerate(gained.tolist(), start=1):
            if g:
                self._per_round[r] = self._per_round.get(r, 0) + g
        self.population += population * counts.shape[0]

    def add_latencies(self, rounds: Sequence[float], population: int) -> None:
        self._latencies.extend(rounds)
        self.population += population

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile; +inf when it falls among the
        processes that were never reached."""
        if self.population <= 0:
            raise ValueError("no deliveries recorded")
        if self._latencies:
            ordered = sorted(self._latencies)
            pos = (self.population - 1) * q / 100.0
            lo = math.floor(pos)
            frac = pos - lo
            if lo + (1 if frac else 0) >= len(ordered):
                return math.inf
            if not frac:
                return ordered[lo]
            return ordered[lo] + (ordered[lo + 1] - ordered[lo]) * frac
        target = self.population * q / 100.0
        seen = 0
        for r in sorted(self._per_round):
            gained = self._per_round[r]
            if seen + gained >= target:
                return (r - 1) + (target - seen) / gained
            seen += gained
        return math.inf
