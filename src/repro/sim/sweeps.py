"""One-call experiment sweeps.

The paper's evaluation is built from three sweep shapes (rate, extent,
fixed budget).  These helpers run a sweep across protocols and return a
:class:`~repro.metrics.report.SeriesReport` ready to print, save, or
diff — the same machinery the benchmark harness uses, packaged for
interactive use::

    from repro.sim.sweeps import rate_sweep

    report = rate_sweep(
        ["drum", "push", "pull"], rates=[0, 32, 64, 128],
        n=120, alpha=0.1, runs=200, seed=1, workers=4,
    )
    print(report.to_json())

Grids are built by :mod:`repro.sweep.grid` and executed by the
:class:`~repro.sweep.orchestrator.SweepRunner` on the process-wide
persistent worker pool (:mod:`repro.sim.executor`): all cells' shard
tasks are flattened into one global work queue, so no cell waits on a
barrier behind another, and each cell is assembled positionally from
its shards' pickled results.  Every cell's seed is derived in the parent
before anything runs, so the report is byte-identical JSON for any
worker count and any task completion order (``workers`` defaults to
the ``REPRO_WORKERS`` env var).  ``store`` (a directory path or
:class:`~repro.sweep.store.ResultStore`) makes the sweep *resumable* —
completed cells persist content-addressed, a per-sweep manifest records
cell status, and re-running an interrupted sweep recomputes only
unfinished cells.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.core.config import ProtocolKind
from repro.metrics.report import SeriesReport
from repro.util.rng import SeedLike

ProtocolName = Union[str, ProtocolKind]


def _sweep_grid(
    report: SeriesReport,
    protocols: Sequence[ProtocolName],
    cells: List[list],
    *,
    workers: Optional[int],
    store=None,
    tracer=None,
    resume: bool = True,
    name: Optional[str] = None,
) -> SeriesReport:
    """Evaluate a protocol-major cell grid and fill ``report``'s series.

    Seeds inside ``cells`` were derived before this call, so the worker
    count only affects scheduling — never values.  The grid must be
    rectangular with one row per protocol: an empty protocol list or a
    ragged grid would otherwise mis-slice series silently, so both are
    rejected up front.
    """
    from repro.sweep.orchestrator import SweepRunner

    if not protocols:
        raise ValueError("protocols must be a non-empty sequence")
    if len(cells) != len(protocols):
        raise ValueError(
            f"cell grid has {len(cells)} rows for {len(protocols)} "
            f"protocols; expected one row per protocol"
        )
    widths = {len(row) for row in cells}
    if len(widths) != 1 or widths != {len(report.x_values)}:
        raise ValueError(
            f"ragged cell grid: row lengths {sorted(widths)} must all "
            f"equal the {len(report.x_values)}-point x-axis"
        )
    runner = SweepRunner(store=store, workers=workers, tracer=tracer)
    result = runner.run(
        name or report.name,
        [cell for row in cells for cell in row],
        resume=resume,
    )
    return result.fill_report(report)


def rate_sweep(
    protocols: Sequence[ProtocolName],
    rates: Sequence[float],
    *,
    n: int = 120,
    alpha: float = 0.1,
    malicious_fraction: float = 0.1,
    runs: Optional[int] = None,
    seed: SeedLike = None,
    max_rounds: int = 400,
    workers: Optional[int] = None,
    store=None,
    tracer=None,
    resume: bool = True,
    name: Optional[str] = None,
) -> SeriesReport:
    """Propagation time vs the per-victim attack rate ``x`` (Figure 3a)."""
    from repro.sweep.grid import rate_grid

    report, cells = rate_grid(
        protocols,
        rates,
        n=n,
        alpha=alpha,
        malicious_fraction=malicious_fraction,
        runs=runs,
        seed=seed,
        max_rounds=max_rounds,
    )
    return _sweep_grid(
        report, protocols, cells, workers=workers, store=store,
        tracer=tracer, resume=resume, name=name,
    )


def extent_sweep(
    protocols: Sequence[ProtocolName],
    alphas: Sequence[float],
    *,
    x: float = 128.0,
    n: int = 120,
    malicious_fraction: float = 0.1,
    runs: Optional[int] = None,
    seed: SeedLike = None,
    max_rounds: int = 400,
    workers: Optional[int] = None,
    store=None,
    tracer=None,
    resume: bool = True,
    name: Optional[str] = None,
) -> SeriesReport:
    """Propagation time vs the attack extent ``α`` (Figure 3b)."""
    from repro.sweep.grid import extent_grid

    report, cells = extent_grid(
        protocols,
        alphas,
        x=x,
        n=n,
        malicious_fraction=malicious_fraction,
        runs=runs,
        seed=seed,
        max_rounds=max_rounds,
    )
    return _sweep_grid(
        report, protocols, cells, workers=workers, store=store,
        tracer=tracer, resume=resume, name=name,
    )


def churn_sweep(
    protocols: Sequence[ProtocolName],
    churn_fractions: Sequence[float],
    *,
    x: float = 0.0,
    alpha: float = 0.1,
    n: int = 120,
    malicious_fraction: float = 0.1,
    join_round: int = 5,
    leave_round: int = 12,
    metric: str = "reliability",
    engine: str = "fast",
    runs: Optional[int] = None,
    seed: SeedLike = None,
    max_rounds: int = 400,
    workers: Optional[int] = None,
    store=None,
    tracer=None,
    resume: bool = True,
    name: Optional[str] = None,
) -> SeriesReport:
    """Residual reliability vs churn fraction (the churn-storm figure).

    Each grid point subjects the group to a symmetric churn storm
    (``join@J:c; leave@L:c``), optionally on top of a DoS attack when
    ``x > 0`` — see :func:`repro.sweep.grid.churn_grid`.  ``metric``
    accepts the churn-aware ``join_latency`` / ``view_convergence`` in
    addition to the standard monte_carlo metrics.
    """
    from repro.sweep.grid import churn_grid

    report, cells = churn_grid(
        protocols,
        churn_fractions,
        x=x,
        alpha=alpha,
        n=n,
        malicious_fraction=malicious_fraction,
        join_round=join_round,
        leave_round=leave_round,
        metric=metric,
        engine=engine,
        runs=runs,
        seed=seed,
        max_rounds=max_rounds,
    )
    return _sweep_grid(
        report, protocols, cells, workers=workers, store=store,
        tracer=tracer, resume=resume, name=name,
    )


def budget_sweep(
    protocols: Sequence[ProtocolName],
    alphas: Sequence[float],
    *,
    budget_per_process: float = 7.2,
    n: int = 120,
    malicious_fraction: float = 0.1,
    runs: Optional[int] = None,
    seed: SeedLike = None,
    max_rounds: int = 400,
    workers: Optional[int] = None,
    store=None,
    tracer=None,
    resume: bool = True,
    name: Optional[str] = None,
) -> SeriesReport:
    """Fixed-budget strategy sweep: ``B = budget_per_process · n``
    split over each extent in ``alphas`` (Figures 7–8)."""
    from repro.sweep.grid import budget_grid

    report, cells = budget_grid(
        protocols,
        alphas,
        budget_per_process=budget_per_process,
        n=n,
        malicious_fraction=malicious_fraction,
        runs=runs,
        seed=seed,
        max_rounds=max_rounds,
    )
    return _sweep_grid(
        report, protocols, cells, workers=workers, store=store,
        tracer=tracer, resume=resume, name=name,
    )
