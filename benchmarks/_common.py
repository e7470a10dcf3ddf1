"""Shared helpers for the figure-reproduction benchmark harness.

Every benchmark regenerates one of the paper's tables or figures: it
runs the workload, prints the figure's rows/series, writes them to
``benchmarks/results/figXX.txt``, and makes loose shape assertions (who
wins, what trends) so a regression in the reproduction fails the bench.

Environment knobs:

- ``REPRO_RUNS``  — Monte-Carlo runs per data point (default 100; the
  paper uses 1000).
- ``REPRO_SCALE`` — multiplies the larger group sizes, e.g. 0.2 turns
  the n = 1000 sweeps into n = 200 smoke runs.
- ``REPRO_WORKERS`` — process-pool workers for the Monte-Carlo fan-out
  (default 1; results are bit-identical for any count).
- ``REPRO_CACHE_DIR`` — on-disk result store location (default
  ``benchmarks/results/.cache``); points shared between figures (e.g.
  the rate-0 baseline) are computed once, and every finished cell is
  stored as it lands, so an interrupted figure grid run again serves
  those cells as store hits.  Delete the directory after changing
  engine semantics.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.sim.parallel import default_workers
from repro.sim.runner import default_runs
from repro.sweep import ResultStore, SweepRunner

RESULTS_DIR = Path(__file__).parent / "results"


def runs(divisor: int = 1) -> int:
    """Monte-Carlo run count for a data point (REPRO_RUNS aware)."""
    return max(10, default_runs() // divisor)


def workers() -> int:
    """Process-pool worker count (REPRO_WORKERS aware)."""
    return default_workers()


def store() -> ResultStore:
    """The benchmark harness's shared on-disk result store."""
    root = os.environ.get("REPRO_CACHE_DIR")
    return ResultStore(Path(root) if root else RESULTS_DIR / ".cache")


def mc_kwargs() -> dict:
    """Keyword args threading the parallel/store knobs into monte_carlo."""
    return {"workers": workers(), "store": store()}


def sweep_runner(tracer=None) -> SweepRunner:
    """A grid runner over the shared store.

    Figure benchmarks hand whole cell grids to this instead of looping
    ``monte_carlo`` serially: cells fan out over the process pool and
    each finished cell is stored as it lands, so a killed benchmark run
    again serves those cells as store hits and recomputes only what
    never finished.
    """
    return SweepRunner(store=store(), workers=workers(), tracer=tracer)


def scaled(n: int) -> int:
    """Apply REPRO_SCALE to a group size (never below 50)."""
    scale = float(os.environ.get("REPRO_SCALE", "1.0"))
    if scale <= 0:
        raise ValueError(f"REPRO_SCALE must be > 0, got {scale}")
    return max(50, int(round(n * scale)))


def record(name: str, table) -> None:
    """Print a figure's table and persist it under benchmarks/results/."""
    text = table.render() if hasattr(table, "render") else str(table)
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
