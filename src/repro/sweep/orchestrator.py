"""The sweep orchestrator.

:class:`SweepRunner` evaluates a list of :class:`~repro.sweep.grid.Cell`
grid points cache-aside through a :class:`~repro.sweep.store.ResultStore`:

1. The parent consults the store for every cell, in cell order,
   recording hit/miss/corrupt per consultation.  Hits resolve there.
2. The misses are flattened into **one global work queue** of (cell,
   shard) calls drained by :func:`repro.sim.parallel.iter_calls` —
   in-process for one worker, else on the process-wide persistent pool
   (:mod:`repro.sim.executor`), where cells complete out of order with
   no inter-cell barrier.  Each cell is assembled and written to the
   store the moment its last call lands.

A killed sweep therefore loses only the cells still in flight: every
finished cell is already an atomic store entry, and running the sweep
again serves it as a store hit.

Every cell's seed is fixed in the parent before anything executes, and
results are assembled positionally from the deterministic shard layout,
so the figure a sweep produces is byte-identical for any worker count,
completion order, and interrupt pattern — an interrupted sweep run
again changes *where* values come from (engine or store), never what
they are.

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
from repro.sim.parallel import (
    check_workers,
    default_workers,
    iter_calls,
    make_job,
)
from repro.sweep.grid import Cell
from repro.sweep.store import ResultStore, as_store


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


@dataclass(frozen=True)
class CellOutcome:
    """One evaluated cell: where its value came from and what it was."""

    index: int
    cell: Cell
    value: float
    #: ``"engine"`` (computed this run) or ``"store"`` (content-addressed
    #: hit).
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
        """Cells served from the store."""
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
    """Evaluates cell grids cache-aside through a store.

    ``store`` may be None (ephemeral sweep: no persistence), a directory
    path, or a :class:`ResultStore`.  ``workers`` follows the
    ``REPRO_WORKERS`` convention used everywhere else; parallel sweeps
    share the process-wide persistent pool.
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

    def run(self, name: str, cells: Sequence[Cell]) -> SweepResult:
        """Evaluate ``cells``: serve store hits, run the misses, and
        store each computed cell as it lands."""
        cells = [self._check_cell(i, c) for i, c in enumerate(cells)]
        if not cells:
            raise ValueError("a sweep needs at least one cell")
        keys = [
            self.store.key_for(cell) if self.store is not None else None
            for cell in cells
        ]

        # Parent-side store consultation, in cell order.  Hits resolve
        # immediately; the statuses feed the cache_* event stream.
        values: Dict[int, Tuple[float, str]] = {}
        cache_status: Dict[int, str] = {}
        jobs: Dict[int, _CellJob] = {}
        for i, cell in enumerate(cells):
            value, status = self._consult_store(cell, keys[i])
            if status is not None:
                cache_status[i] = status
            if value is not None:
                values[i] = (value, "store")
            else:
                jobs[i] = _CellJob(cell, workers=self.workers)

        # Every miss's calls in one queue: no inter-cell barrier.
        calls: List = []
        owners: List[Tuple[int, int]] = []
        for i, job in jobs.items():
            for local_index, call in enumerate(job.calls):
                owners.append((i, local_index))
                calls.append(call)
        for call_index, call_result in iter_calls(calls, self.workers):
            i, local_index = owners[call_index]
            if not jobs[i].deliver(local_index, call_result):
                continue
            cell_result = jobs.pop(i).result()
            if keys[i] is not None:
                self.store.store_cell(cells[i], keys[i], cell_result)
            values[i] = (_metric_value(cells[i], cell_result), "engine")

        result = SweepResult(
            name=name,
            outcomes=tuple(
                CellOutcome(i, cell, *values[i], keys[i])
                for i, cell in enumerate(cells)
            ),
        )
        self._emit_events(result, cache_status=cache_status)
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

    def _emit_events(
        self, result: SweepResult, *, cache_status: Dict[int, str]
    ) -> None:
        """Re-emit the sweep lifecycle in deterministic cell order."""
        tracer = self.tracer
        if tracer is None:
            return
        tracer.sweep_start(
            name=result.name,
            cells=len(result.outcomes),
            pending=result.computed,
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
