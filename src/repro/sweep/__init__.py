"""Resumable experiment sweep orchestration.

The paper's evaluation — and every ROADMAP item stacked on top of it —
is a grid of Monte-Carlo cells: protocol × attack strength × group
size, hundreds to millions of points, each an independent seeded
experiment.  This package turns "re-run the whole grid and hope" into
an orchestrated, interruptible workload:

- :class:`~repro.sweep.grid.Cell` — one grid cell: a scenario (or DES
  cluster config), run count, positional seed, engine, and the metric
  to extract.  Grid builders (:func:`~repro.sweep.grid.rate_grid`,
  :func:`~repro.sweep.grid.extent_grid`,
  :func:`~repro.sweep.grid.budget_grid`) produce the paper's three
  sweep shapes; arbitrary cell lists work the same way.
- :class:`~repro.sweep.store.ResultStore` — the persistent
  content-addressed result store: the npz tier holds full
  ``MonteCarloResult`` arrays (shared with ``monte_carlo(store=...)``),
  the envelope tier the versioned JSON result envelope
  (``repro.result``) for DES measurement results.
  Keys are canonical-token digests (:mod:`repro.util.canonical`) —
  stable across processes, never ``repr``-derived.
- :class:`~repro.sweep.orchestrator.SweepRunner` — evaluates a cell
  list cache-aside through the store, records a per-cell manifest, and
  resumes an interrupted sweep by recomputing *only* unfinished cells.
  Figure output is byte-identical for any worker count and for any
  interrupt/resume pattern.

``repro.sim.sweeps`` routes its grids through this package, the
``repro sweep`` CLI subcommand drives it from the shell, and the
benchmark harness (``benchmarks/_common.py``) shares one store across
figures so common points compute once, ever.
"""

from repro.sweep.grid import (
    Cell,
    budget_grid,
    churn_grid,
    extent_grid,
    rate_grid,
    scale_grid,
)
from repro.sweep.orchestrator import CellOutcome, SweepResult, SweepRunner
from repro.sweep.store import ResultStore, as_store

__all__ = [
    "Cell",
    "CellOutcome",
    "ResultStore",
    "SweepResult",
    "SweepRunner",
    "as_store",
    "budget_grid",
    "churn_grid",
    "extent_grid",
    "rate_grid",
    "scale_grid",
]
