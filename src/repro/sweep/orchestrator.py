"""The resumable sweep orchestrator.

:class:`SweepRunner` evaluates a list of :class:`~repro.sweep.grid.Cell`
grid points cache-aside through a :class:`~repro.sweep.store.ResultStore`
and records a **manifest** — per-cell status, key, and value — so an
interrupted sweep resumes by recomputing only unfinished cells:

1. The sweep's *identity* is the canonical-token digest of ``(name,
   cells)``.  A manifest whose identity matches is trusted; one that
   does not (the grid changed) is discarded and rebuilt.
2. Cells already ``done`` in the manifest are served from their
   recorded value without touching an engine or the store.
3. The parent consults the store for every remaining cell (an
   interrupted sweep's completed cells live there even when the
   manifest never saw them finish), recording hit/miss/corrupt per
   consultation.
4. The misses are flattened into **one global work queue** of (cell,
   shard) tasks on the process-wide persistent pool
   (:mod:`repro.sim.executor`): every cell's shard calls are submitted
   up front, cells complete out of order with no inter-cell barrier,
   and each cell is assembled, written to the store, and folded into
   the manifest the moment its last shard lands.  The manifest is
   checkpointed every :data:`CHUNK_FACTOR` × ``workers`` completions,
   bounding how much *finished* work a kill can hide from it.

Every cell's seed is fixed in the parent before anything executes, and
results are assembled positionally from the deterministic shard layout,
so the figure a sweep produces is byte-identical for any worker count,
completion order, and interrupt/resume pattern — resuming changes
*where* values come from (engine, store, or manifest), never what they
are.

Observability: with a ``tracer``, the runner emits ``sweep_start``,
per-cell ``cell_start`` / ``cache_hit|cache_miss|cache_corrupt`` (one
per store consultation) / ``cell_cache_hit`` / ``cell_finish``, and
``sweep_end`` events in cell-index order (a pure function of the cell
list — never of workers or completion order).  Cell *execution* itself
is untraced: engine-level tracing bypasses result caches by design
(see :func:`repro.sim.runner.monte_carlo`), and the orchestrator's job
is precisely to make cache hits the common case.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.metrics.report import SeriesReport
from repro.metrics.stats import summarize_runs
from repro.sim.executor import get_pool
from repro.sim.parallel import check_workers, default_workers, make_job
from repro.sweep.grid import Cell
from repro.sweep.store import (
    MANIFEST_SCHEMA,
    MANIFEST_VERSION,
    ResultStore,
    as_store,
)
from repro.util.canonical import canonical_key

#: Manifest checkpoint cadence, as a multiple of the worker count: the
#: manifest is rewritten after every ``CHUNK_FACTOR * workers`` cell
#: completions (plus once before and once after the queue drains).
#: This bounds how much *finished* work a kill can hide from the
#: manifest (the store still has it; resume would re-load, not re-run).
#: Cadence never affects values — seeds are pre-derived per cell.
CHUNK_FACTOR = 4


def _metric_value(cell: Cell, result) -> float:
    """Extract ``cell.metric`` from a result object."""
    metric = cell.metric
    if metric == "mean_rounds":
        return float(result.mean_rounds())
    if metric == "std_rounds":
        return float(result.std_rounds())
    if metric == "reliability":
        return float(np.mean(result.residual_reliability()))
    if metric in ("join_latency", "view_convergence"):
        values = getattr(result, metric)()
        if values is None:
            return float("nan")  # churn-free cell: metric undefined
        return summarize_runs(values).mean
    if metric == "delivery_ratio":
        return float(result.delivery_ratio())
    if metric == "throughput":
        return float(result.throughput().mean_msgs_per_sec)
    if metric == "mean_latency_ms":
        samples = [
            latency
            for values in result.latencies_by_process().values()
            for latency in values
        ]
        return float(np.mean(samples)) if samples else float("nan")
    raise ValueError(f"unknown metric {metric!r}")


def _des_cell_task(task):
    """Pool entry point for a measurement cell: one DES experiment."""
    from repro.des.cluster import run_throughput_experiment

    config, seed = task
    return run_throughput_experiment(config, seed=seed)


def _cell_runs(cell: Cell) -> Optional[int]:
    """The cell's Monte-Carlo run count with the REPRO_RUNS default
    applied (None for measurement cells)."""
    if cell.scenario is None:
        return None
    if cell.runs is not None:
        return cell.runs
    from repro.sim.runner import default_runs

    return default_runs()


class _CellJob:
    """One pending cell's calls, spliceable into the global work queue.

    Monte-Carlo cells expand to their deterministic shard calls;
    measurement cells are a single DES call.  ``deliver`` collects
    completions positionally, so assembly is independent of the order
    the pool finishes them in.
    """

    def __init__(self, cell: Cell, *, workers: int):
        self.cell = cell
        self.job = None
        if cell.scenario is not None:
            self.job = make_job(
                cell.scenario,
                _cell_runs(cell),
                seed=cell.seed,
                engine=cell.engine,
                horizon=cell.horizon,
                workers=workers,
            )
            self.calls = self.job.calls(False)
        else:
            self.calls = [(_des_cell_task, (cell.config, cell.seed))]
        self._results: List = [None] * len(self.calls)
        self._missing = len(self.calls)

    def deliver(self, local_index: int, result) -> bool:
        """Record one call's completion; True when the cell is whole."""
        self._results[local_index] = result
        self._missing -= 1
        return self._missing == 0

    def result(self):
        """Assemble the completed cell's result."""
        if self.job is None:
            return self._results[0]
        return self.job.assemble(self._results, None)


def sweep_identity(name: str, cells: Sequence[Cell]) -> Optional[str]:
    """The sweep's canonical identity, or None when any cell resists
    canonicalisation (a generator-seeded cell, say) — such sweeps still
    run, they just cannot carry a trustworthy manifest."""
    try:
        return canonical_key(["sweep", name, list(cells)])
    except TypeError:
        return None


@dataclass(frozen=True)
class CellOutcome:
    """One evaluated cell: where its value came from and what it was."""

    index: int
    cell: Cell
    value: float
    #: ``"engine"`` (computed this run), ``"store"`` (content-addressed
    #: hit), or ``"manifest"`` (trusted done entry from a prior run).
    source: str
    key: Optional[str]

    @property
    def cached(self) -> bool:
        return self.source != "engine"


@dataclass(frozen=True)
class SweepResult:
    """Everything a completed sweep produced."""

    name: str
    outcomes: Tuple[CellOutcome, ...]

    @property
    def values(self) -> List[float]:
        return [outcome.value for outcome in self.outcomes]

    @property
    def computed(self) -> int:
        """Cells that ran an engine this invocation."""
        return sum(1 for o in self.outcomes if o.source == "engine")

    @property
    def cache_hits(self) -> int:
        """Cells served from the store or the manifest."""
        return sum(1 for o in self.outcomes if o.cached)

    def series(self) -> Dict[str, List[float]]:
        """Values grouped by series label, in cell order."""
        out: Dict[str, List[float]] = {}
        for outcome in self.outcomes:
            out.setdefault(outcome.cell.series, []).append(outcome.value)
        return out

    def fill_report(self, report: SeriesReport) -> SeriesReport:
        """Attach every series to ``report`` (x-axes must align)."""
        for label, values in self.series().items():
            report.add_series(label, values)
        return report


class SweepRunner:
    """Evaluates cell grids through a store, manifest-checkpointed.

    ``store`` may be None (ephemeral sweep: no persistence, no
    manifest), a directory path, or a :class:`ResultStore`.  ``workers``
    follows the ``REPRO_WORKERS`` convention used everywhere else;
    parallel sweeps share the process-wide persistent pool.
    """

    def __init__(
        self,
        store: Union[None, str, Path, ResultStore] = None,
        *,
        workers: Optional[int] = None,
        tracer=None,
    ):
        self.store = as_store(store)
        self.workers = (
            default_workers() if workers is None else check_workers(workers)
        )
        self.tracer = tracer

    def run(
        self, name: str, cells: Sequence[Cell], *, resume: bool = True
    ) -> SweepResult:
        """Evaluate ``cells``, resuming from ``name``'s manifest.

        With ``resume=False`` the manifest is rebuilt from scratch —
        completed cells still short-circuit through the content-
        addressed store, so even a fresh manifest never re-burns
        compute the store already holds.
        """
        cells = [self._check_cell(i, c) for i, c in enumerate(cells)]
        if not cells:
            raise ValueError("a sweep needs at least one cell")
        identity = sweep_identity(name, cells)
        keys = [
            self.store.key_for(cell) if self.store is not None else None
            for cell in cells
        ]

        manifest_values = self._manifest_values(name, cells, identity, resume)
        pending = [i for i in range(len(cells)) if i not in manifest_values]
        self._checkpoint(name, cells, identity, keys, manifest_values, {})

        # Parent-side store consultation, in cell order.  Hits resolve
        # immediately; the statuses feed the cache_* event stream.
        computed: Dict[int, Tuple[float, bool]] = {}
        cache_status: Dict[int, str] = {}
        to_run: List[int] = []
        for i in pending:
            value, status = self._consult_store(cells[i], keys[i])
            if status is not None:
                cache_status[i] = status
            if value is not None:
                computed[i] = (value, True)
            else:
                to_run.append(i)

        if to_run:
            checkpoint_every = max(1, self.workers * CHUNK_FACTOR)
            run_args = (
                name, cells, identity, keys, manifest_values, computed,
                to_run, checkpoint_every,
            )
            if self.workers <= 1:
                self._run_serial(*run_args)
            else:
                self._run_queue(*run_args)
        self._checkpoint(name, cells, identity, keys, manifest_values, computed)

        outcomes = []
        for i, cell in enumerate(cells):
            if i in manifest_values:
                outcomes.append(
                    CellOutcome(i, cell, manifest_values[i], "manifest", keys[i])
                )
            else:
                value, from_store = computed[i]
                source = "store" if from_store else "engine"
                outcomes.append(CellOutcome(i, cell, value, source, keys[i]))
        result = SweepResult(name=name, outcomes=tuple(outcomes))
        self._emit_events(
            result, pending=len(pending), cache_status=cache_status
        )
        return result

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _check_cell(index: int, cell) -> Cell:
        if not isinstance(cell, Cell):
            raise TypeError(f"cells[{index}] is not a Cell: {cell!r}")
        return cell

    def _consult_store(
        self, cell: Cell, key: Optional[str]
    ) -> Tuple[Optional[float], Optional[str]]:
        """``(value, status)`` from the store; value None on miss/corrupt,
        status None when the cell was never consultable."""
        if self.store is None or key is None:
            return None, None
        result, status = self.store.load_cell(cell, key)
        if result is None:
            return None, status
        return _metric_value(cell, result), status

    def _store_result(self, cell: Cell, key: Optional[str], result) -> None:
        """Cache-aside write of one computed cell (parent-side)."""
        if self.store is not None and key is not None:
            self.store.store_cell(cell, key, result)

    def _compute_cell(self, cell: Cell, key: Optional[str]) -> float:
        """Serial in-process evaluation of one cell."""
        if cell.scenario is not None:
            from repro.sim.parallel import execute_job

            job = make_job(
                cell.scenario,
                _cell_runs(cell),
                seed=cell.seed,
                engine=cell.engine,
                horizon=cell.horizon,
                workers=1,
            )
            result = execute_job(job, workers=1)
        else:
            result = _des_cell_task((cell.config, cell.seed))
        self._store_result(cell, key, result)
        return _metric_value(cell, result)

    def _run_serial(
        self, name, cells, identity, keys, manifest_values, computed,
        to_run, checkpoint_every,
    ) -> None:
        done_since = 0
        for i in to_run:
            computed[i] = (self._compute_cell(cells[i], keys[i]), False)
            done_since += 1
            if done_since >= checkpoint_every:
                self._checkpoint(
                    name, cells, identity, keys, manifest_values, computed
                )
                done_since = 0

    def _run_queue(
        self, name, cells, identity, keys, manifest_values, computed,
        to_run, checkpoint_every,
    ) -> None:
        """Drain every pending cell through one global (cell, shard)
        work queue on the persistent pool — no inter-cell barrier."""
        pool = get_pool(self.workers)
        jobs: Dict[int, _CellJob] = {}
        calls: List = []
        owners: List[Tuple[int, int]] = []
        for i in to_run:
            job = _CellJob(cells[i], workers=self.workers)
            jobs[i] = job
            for local_index, call in enumerate(job.calls):
                owners.append((i, local_index))
                calls.append(call)
        done_since = 0
        for call_index, result in pool.imap_calls(calls):
            i, local_index = owners[call_index]
            if not jobs[i].deliver(local_index, result):
                continue
            cell_result = jobs.pop(i).result()
            self._store_result(cells[i], keys[i], cell_result)
            computed[i] = (_metric_value(cells[i], cell_result), False)
            done_since += 1
            if done_since >= checkpoint_every:
                self._checkpoint(
                    name, cells, identity, keys, manifest_values, computed
                )
                done_since = 0

    def _manifest_values(
        self,
        name: str,
        cells: Sequence[Cell],
        identity: Optional[str],
        resume: bool,
    ) -> Dict[int, float]:
        """Trusted ``{index: value}`` entries from a prior manifest."""
        if not resume or self.store is None or identity is None:
            return {}
        manifest = self.store.load_manifest(name)
        if manifest is None or manifest.get("identity") != identity:
            return {}
        done: Dict[int, float] = {}
        for entry in manifest.get("cells", []):
            index = entry.get("index")
            if (
                entry.get("status") == "done"
                and isinstance(index, int)
                and 0 <= index < len(cells)
                and isinstance(entry.get("value"), (int, float))
            ):
                done[index] = float(entry["value"])
        return done

    def _checkpoint(
        self,
        name: str,
        cells: Sequence[Cell],
        identity: Optional[str],
        keys: Sequence[Optional[str]],
        manifest_values: Dict[int, float],
        computed: Dict[int, Tuple[float, bool]],
    ) -> None:
        """Write the manifest reflecting current per-cell status."""
        if self.store is None or identity is None:
            return
        entries = []
        for i, cell in enumerate(cells):
            if keys[i] is None:
                # No stable content-address (seedless or generator-
                # seeded cell): its value is not reproducible, so it is
                # recomputed every run and never recorded as done.
                status, value = "uncacheable", None
            elif i in manifest_values:
                status, value = "done", manifest_values[i]
            elif i in computed:
                status, value = "done", computed[i][0]
            else:
                status, value = "pending", None
            entries.append(
                {
                    "index": i,
                    "series": cell.series,
                    "x": cell.x,
                    "kind": cell.kind,
                    "metric": cell.metric,
                    "key": keys[i],
                    "status": status,
                    "value": value,
                }
            )
        self.store.store_manifest(
            name,
            {
                "schema": MANIFEST_SCHEMA,
                "version": MANIFEST_VERSION,
                "name": name,
                "identity": identity,
                "cells": entries,
            },
        )

    def _emit_events(
        self,
        result: SweepResult,
        *,
        pending: int,
        cache_status: Dict[int, str],
    ) -> None:
        """Re-emit the sweep lifecycle in deterministic cell order."""
        tracer = self.tracer
        if tracer is None:
            return
        tracer.sweep_start(
            name=result.name, cells=len(result.outcomes), pending=pending
        )
        for outcome in result.outcomes:
            tracer.cell_start(
                index=outcome.index,
                series=outcome.cell.series,
                x=outcome.cell.x,
            )
            status = cache_status.get(outcome.index)
            if status is not None:
                tier = (
                    "npz" if outcome.cell.scenario is not None else "envelope"
                )
                # cache_hit / cache_miss / cache_corrupt
                getattr(tracer, f"cache_{status}")(key=outcome.key, tier=tier)
            if outcome.cached:
                tracer.cell_cache_hit(
                    index=outcome.index, source=outcome.source
                )
            tracer.cell_finish(
                index=outcome.index,
                value=outcome.value,
                cached=outcome.cached,
            )
        tracer.sweep_end(
            computed=result.computed, cache_hits=result.cache_hits
        )
