"""Round-synchronised simulation of the gossip protocols.

Three round engines share one :class:`~repro.sim.scenario.Scenario`
description:

- :mod:`repro.sim.engine` — the *exact* object-level engine: real
  packets, ports, channels, sealed envelopes.  Used by tests and small
  studies; every mechanism in :mod:`repro.core` actually executes.
- :mod:`repro.sim.fast` — the numpy Monte-Carlo engine: identical round
  semantics expressed as vectorised sampling, stacking all runs of an
  experiment into array operations.  Used by the benchmark harness,
  where the paper averages 1000 runs per data point, and by the
  Section 6 scale runs to n = 10⁶.
- :mod:`repro.sim.mega` — the packed-bitset engine, statistically
  pinned to the fast engine.

:func:`repro.sim.runner.monte_carlo` dispatches between them and
aggregates :class:`~repro.sim.results.MonteCarloResult` statistics;
``repro.Experiment(...).run("fast" | "exact" | "mega")`` builds the
scenario and calls it for you.

Parallel execution runs on the process-wide persistent worker pool
(:mod:`repro.sim.executor`): workers are forked once and reused across
every ``monte_carlo`` call and sweep cell; shard results come back
through the pool's pickles and are assembled positionally.
:func:`close_pool` tears the pool down explicitly (it is also
registered atexit).  :class:`~repro.sweep.store.ResultStore` persists
results for ``monte_carlo(store=...)`` and the sweep grids
(:mod:`repro.sweep.grid`) alike.
"""

from repro.sim.scenario import Scenario
from repro.sim.results import MonteCarloResult, RunResult
from repro.sim.engine import RoundSimulator, run_exact
from repro.sim.fast import run_fast
from repro.sim.mega import MegaResult, run_mega
from repro.sim.executor import (
    WorkerPool,
    close_pool,
    pool_override,
    stats as executor_stats,
)
from repro.sim.parallel import default_workers
from repro.sim.runner import default_runs, monte_carlo
from repro.sweep.store import ResultStore

__all__ = [
    "MegaResult",
    "MonteCarloResult",
    "ResultStore",
    "RoundSimulator",
    "RunResult",
    "Scenario",
    "WorkerPool",
    "close_pool",
    "default_runs",
    "default_workers",
    "executor_stats",
    "monte_carlo",
    "pool_override",
    "run_exact",
    "run_fast",
    "run_mega",
]
