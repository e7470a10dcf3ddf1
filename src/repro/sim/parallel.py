"""Parallel, deterministic Monte-Carlo execution.

This module shards Monte-Carlo work across the process-wide persistent
pool (:mod:`repro.sim.executor`) while keeping every result a pure
function of the root seed, *independent of the worker count*:

- the run fan-out of :func:`~repro.sim.runner.monte_carlo` is split into
  shards whose layout and seeds depend only on ``(runs, seed)`` — never
  on ``workers`` — so ``workers=1`` and ``workers=8`` produce
  bit-identical :class:`~repro.sim.results.MonteCarloResult` arrays;
- the sweep helpers in :mod:`repro.sim.sweeps` pre-derive every grid
  cell's seed in the parent and only *schedule* cells on the pool, so
  sweep reports are byte-identical JSON for any worker count.

Execution is organised as **jobs** (:func:`make_job` /
:func:`execute_job`): a job knows its deterministic shard layout up
front, its shard calls return their arrays through the pool's pickled
results, and the parent stacks them positionally (padding each row with
its final value, :func:`_stack_padded`) — so the assembled result is the
same in-process, on any number of workers, in any completion order.

The worker count defaults to the ``REPRO_WORKERS`` environment variable
(validated exactly like ``REPRO_RUNS``; fallback 1 = serial in-process).
The pool's start method honours ``REPRO_START_METHOD`` — see
:func:`repro.sim.executor.start_method`.

Results are persisted by :class:`repro.sweep.store.ResultStore`, which
:func:`~repro.sim.runner.monte_carlo` and the sweep orchestrator share.
"""

from __future__ import annotations

import math
import os
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.engine import run_exact
from repro.sim.executor import get_pool
from repro.sim.fast import run_fast
from repro.sim.results import MonteCarloResult
from repro.sim.scenario import Scenario
from repro.util import spawn_seeds
from repro.util.rng import SeedLike

#: Runs per fast-engine shard.  The shard layout is a function of the
#: run count only (never of the worker count) — that is what makes
#: results worker-count invariant.  64 keeps shards large enough to
#: vectorise well while giving a 1000-run point 16-way parallelism.
FAST_SHARD_RUNS = 64


# ---------------------------------------------------------------------------
# worker-count plumbing
# ---------------------------------------------------------------------------

def check_workers(value) -> int:
    """Validate a worker count: an integer >= 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"workers must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"workers must be >= 1, got {value}")
    return int(value)


def default_workers(fallback: int = 1) -> int:
    """The worker count: ``REPRO_WORKERS`` env var or ``fallback``."""
    raw = os.environ.get("REPRO_WORKERS")
    if raw is None:
        return fallback
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"REPRO_WORKERS must be an integer, got {raw!r}"
        ) from exc
    if value < 1:
        raise ValueError(f"REPRO_WORKERS must be >= 1, got {value}")
    return value


def parallel_map(fn: Callable, tasks: Sequence, workers: int = 1) -> List:
    """``[fn(t) for t in tasks]``, optionally across the persistent pool.

    Output order always matches input order, so callers see identical
    results for any ``workers``; with one task (or one worker) the work
    runs serially in-process.  Parallel calls ride the process-wide
    :class:`~repro.sim.executor.WorkerPool` — the pool is forked once
    and reused, not per call.
    """
    tasks = list(tasks)
    workers = check_workers(workers)
    if workers <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    pool = get_pool(min(workers, len(tasks)))
    return pool.run_calls([(fn, task) for task in tasks])


# ---------------------------------------------------------------------------
# sharded monte_carlo execution
# ---------------------------------------------------------------------------

def child_seeds(seed: SeedLike, count: int) -> List[np.random.SeedSequence]:
    """``spawn_seeds`` without mutating a caller-owned ``SeedSequence``.

    ``SeedSequence.spawn`` advances the parent's child counter, which
    would make an experiment's result depend on how many experiments
    shared the seed *before* it — and a pool worker's pickled copy would
    not see the parent's mutations, so serial and parallel sweeps would
    diverge.  Deriving children positionally from the seed's value
    (entropy + spawn_key) keeps every experiment a pure function of the
    seed.  Generator seeds stay stateful by design and fall back to
    :func:`spawn_seeds`.
    """
    if isinstance(seed, np.random.Generator):
        return spawn_seeds(seed, count)
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return [
        np.random.SeedSequence(
            entropy=root.entropy,
            spawn_key=tuple(root.spawn_key) + (i,),
            pool_size=root.pool_size,
        )
        for i in range(count)
    ]


def fast_shard_sizes(runs: int) -> List[int]:
    """Deterministic fast-engine shard layout for ``runs`` runs.

    A function of ``runs`` alone, so the per-shard seed derivation (and
    therefore every sampled value) is identical for any worker count.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    full, rem = divmod(runs, FAST_SHARD_RUNS)
    return [FAST_SHARD_RUNS] * full + ([rem] if rem else [])


def _shard_tracer():
    """A worker-local (tracer, sink) pair for traced shard execution.

    Workers cannot share the caller's tracer across process boundaries,
    so each shard records into its own in-memory sink and ships the
    plain-dict events back with its arrays; the parent re-emits them in
    deterministic shard order (see :func:`run_sharded`).
    """
    from repro.obs import MemorySink, Tracer

    sink = MemorySink()
    return Tracer(sink), sink


def _fast_shard(task) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray], Optional[list]]:
    scenario, shard_runs, seed, horizon, trace = task
    tracer = sink = None
    if trace:
        tracer, sink = _shard_tracer()
    result = run_fast(
        scenario, shard_runs, seed=seed, horizon=horizon, tracer=tracer
    )
    return (
        result.counts,
        result.counts_attacked,
        result.counts_non_attacked,
        result.reachable_holders,
        result.churn_stats,
        sink.events if sink is not None else None,
    )


def _run_churn_row(result) -> np.ndarray:
    """One exact run's ``[join_latency, view_convergence]`` row."""
    churn = result.churn or {}
    return np.array(
        [
            [
                float(churn.get("join_latency", float("nan"))),
                float(churn.get("view_convergence", float("nan"))),
            ]
        ],
        dtype=np.float64,
    )


def _exact_shard(task) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray], Optional[list]]]:
    scenario, seeds, trace = task
    schedule = scenario.fault_schedule()
    reachable = (
        None
        if schedule is None
        else len(schedule.reachable_ids(scenario.max_rounds))
    )
    has_churn = schedule is not None and schedule.has_churn
    out = []
    for seed in seeds:
        tracer = sink = None
        if trace:
            tracer, sink = _shard_tracer()
        result = run_exact(scenario, seed=seed, tracer=tracer)
        holders = None
        if reachable is not None:
            # residual_reliability is holders/reachable, so this
            # round-trips the integer numerator exactly.
            holders = np.array(
                [int(round(result.residual_reliability * reachable))],
                dtype=np.int32,
            )
        churn = _run_churn_row(result) if has_churn else None
        out.append(
            (
                result.counts,
                result.counts_attacked,
                result.counts_non_attacked,
                holders,
                churn,
                sink.events if sink is not None else None,
            )
        )
    return out


def _stack_padded(blocks: List[np.ndarray], width: int) -> np.ndarray:
    """Stack 2-D trajectory blocks, padding columns with the final value."""
    total = sum(block.shape[0] for block in blocks)
    out = np.zeros((total, width), dtype=np.int32)
    row = 0
    for block in blocks:
        rows, cols = block.shape
        out[row:row + rows, :cols] = block
        if cols < width:
            out[row:row + rows, cols:] = block[:, -1:]
        row += rows
    return out


class _DenseJob:
    """One fast/exact Monte-Carlo invocation as an executor job.

    :meth:`calls` lists the shard tasks of the deterministic layout;
    each returns its arrays through the future, and :meth:`assemble`
    stacks them positionally, so the result is the same whatever ran
    the calls, on how many workers, in what completion order.
    """

    def __init__(
        self,
        scenario: Scenario,
        runs: int,
        *,
        seed: SeedLike,
        engine: str,
        horizon: Optional[int],
        workers: int,
    ):
        if runs < 1:
            raise ValueError(f"runs must be >= 1, got {runs}")
        self.scenario = scenario
        self.runs = int(runs)
        self.engine = engine
        self.horizon = horizon
        schedule = scenario.fault_schedule()
        self.has_churn = schedule is not None and schedule.has_churn
        if engine == "fast":
            sizes = fast_shard_sizes(self.runs)
            if len(sizes) == 1:
                # Single shard: pass the caller's seed straight through
                # so small experiments replay the historical serial
                # stream.
                seeds: List[SeedLike] = [seed]
            else:
                seeds = list(child_seeds(seed, len(sizes)))
            self._sizes = sizes
            self._seeds = seeds
        elif engine == "exact":
            run_seeds = child_seeds(seed, self.runs)
            # Result order is fixed by the per-run seeds, so the
            # chunking here only affects scheduling and may depend on
            # workers.
            chunk = max(1, math.ceil(self.runs / max(1, workers * 4)))
            self._chunks = [
                run_seeds[i:i + chunk] for i in range(0, self.runs, chunk)
            ]
        else:
            raise ValueError(
                f"unknown engine {engine!r}; use 'fast', 'exact', or 'mega'"
            )

    def calls(self, trace: bool) -> List[Tuple[Callable, tuple]]:
        if self.engine == "fast":
            return [
                (_fast_shard, (self.scenario, size, seed, self.horizon, trace))
                for size, seed in zip(self._sizes, self._seeds)
            ]
        return [
            (_exact_shard, (self.scenario, chunk, trace))
            for chunk in self._chunks
        ]

    def assemble(self, shards: List, tracer) -> MonteCarloResult:
        trace = tracer is not None
        if self.engine == "fast":
            triples = [shard[:5] for shard in shards]
            if trace:
                for shard_ix, shard in enumerate(shards):
                    for event in shard[5]:
                        event["shard"] = shard_ix
                        tracer.emit(event)
        else:
            per_run = [triple for shard in shards for triple in shard]
            if trace:
                for run_ix, row in enumerate(per_run):
                    for event in row[5]:
                        event["run"] = run_ix
                        tracer.emit(event)
            triples = [
                (row[None, :], att[None, :], non[None, :], holders, churn)
                for row, att, non, holders, churn, _events in per_run
            ]
        width = max(t[0].shape[1] for t in triples)
        if self.horizon is not None:
            width = max(width, self.horizon + 1)
        counts = _stack_padded([t[0] for t in triples], width)
        attacked = _stack_padded([t[1] for t in triples], width)
        non_attacked = _stack_padded([t[2] for t in triples], width)
        reachable_holders = None
        if all(t[3] is not None for t in triples):
            reachable_holders = np.concatenate([t[3] for t in triples])
        churn_stats = None
        if self.has_churn and all(t[4] is not None for t in triples):
            churn_stats = np.concatenate([t[4] for t in triples])
        return MonteCarloResult(
            scenario=self.scenario,
            counts=counts,
            counts_attacked=attacked,
            counts_non_attacked=non_attacked,
            reachable_holders=reachable_holders,
            churn_stats=churn_stats,
        )


def make_job(
    scenario: Scenario,
    runs: int,
    *,
    seed: SeedLike = None,
    engine: str = "fast",
    horizon: Optional[int] = None,
    workers: int = 1,
):
    """The executor job for one Monte-Carlo invocation.

    ``engine="mega"`` returns a :class:`repro.sim.mega.MegaJob` (one
    task per packed run); ``"fast"``/``"exact"`` return a
    :class:`_DenseJob`.  Feed the job to :func:`execute_job` — the
    sweep orchestrator instead splices many jobs' calls into one global
    work queue and assembles each as its calls complete.
    """
    if engine == "mega":
        from repro.sim.mega import MegaJob

        return MegaJob(
            scenario, runs, seed=seed, horizon=horizon
        )
    return _DenseJob(
        scenario, runs, seed=seed, engine=engine, horizon=horizon,
        workers=workers,
    )


def execute_job(job, *, workers: int = 1, tracer=None) -> MonteCarloResult:
    """Run ``job``'s calls and assemble its result.

    Serial (``workers=1``) and single-call jobs run in-process; the rest
    go through the persistent pool.  Assembly is positional, so the
    result is byte-identical for any worker count or completion order.
    ``tracer`` makes each call record its events and ship them back
    with its arrays.
    """
    workers = check_workers(workers)
    calls = job.calls(tracer is not None)
    if workers <= 1 or len(calls) <= 1:
        shards = [fn(payload) for fn, payload in calls]
    else:
        shards = get_pool(min(workers, len(calls))).run_calls(calls)
    return job.assemble(shards, tracer)


def run_sharded(
    scenario: Scenario,
    runs: int,
    *,
    seed: SeedLike = None,
    engine: str = "fast",
    horizon: Optional[int] = None,
    workers: int = 1,
    tracer=None,
) -> MonteCarloResult:
    """Run ``scenario`` ``runs`` times, sharded across ``workers``.

    Seeds are derived in the parent before any shard executes, and the
    fast engine's shard layout depends only on ``runs`` — so the result
    is bit-identical for every worker count.  The exact engine derives
    one child seed per run (exactly the historical serial behaviour),
    which makes *its* sharding free to chase load balance.

    ``tracer`` attaches a :class:`repro.obs.Tracer`.  Each shard records
    into a worker-local in-memory sink and ships its events back; the
    parent re-emits them into the caller's tracer ordered by *shard
    index* (fast) or *run index* (exact) — an ordering fixed by the
    seed-derivation layout, never by the worker count or completion
    order, so the merged event stream is identical for any ``workers``.
    Re-emitted events carry a ``shard`` (fast) or ``run`` (exact) key.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    workers = check_workers(workers)
    if engine == "mega":
        # The packed engine owns its own run fan-out (one run per task,
        # node axis streamed in shards) and result type; delegate whole.
        # Imported lazily: mega imports this module's seed plumbing.
        from repro.sim.mega import run_mega

        return run_mega(
            scenario,
            runs,
            seed=seed,
            horizon=horizon,
            workers=workers,
            tracer=tracer,
        )
    job = make_job(
        scenario, runs, seed=seed, engine=engine, horizon=horizon,
        workers=workers,
    )
    return execute_job(job, workers=workers, tracer=tracer)
