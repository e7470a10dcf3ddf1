"""Monte-Carlo experiment driver.

:func:`monte_carlo` runs a scenario many times and aggregates the
trajectories.  It defaults to the vectorised engine; ``engine="exact"``
runs the object-level simulator per run instead (slower, every protocol
mechanism really executes) and aggregates identically — tests use both
and compare.

Execution is sharded by :mod:`repro.sim.parallel`: ``workers`` (default:
the ``REPRO_WORKERS`` env var, else 1) spreads the shards over the
process-wide persistent pool (:mod:`repro.sim.executor` — forked once,
reused across calls; ``REPRO_START_METHOD`` overrides the fork/spawn
choice), and because shard layout and seed derivation depend only on
the run count and root seed, the result is bit-identical for every
worker count.  An optional :class:`~repro.sweep.store.ResultStore`
memoises results on disk by ``(scenario, runs, seed, engine, horizon)``.

The run count honours the ``REPRO_RUNS`` environment variable so the
benchmark harness can be dialled between quick smoke sweeps and
paper-strength 1000-run averages without code changes.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.sim.parallel import check_workers, default_workers, run_sharded
from repro.sim.results import MonteCarloResult
from repro.sim.scenario import Scenario
from repro.util.rng import SeedLike

#: Run count used when neither the caller nor REPRO_RUNS specifies one.
#: The paper averages 1000 runs per point; 100 keeps full benchmark
#: sweeps to minutes while holding mean propagation times to within a
#: few percent.
DEFAULT_RUNS = 100


def default_runs(fallback: int = DEFAULT_RUNS) -> int:
    """The experiment run count: ``REPRO_RUNS`` env var or ``fallback``."""
    raw = os.environ.get("REPRO_RUNS")
    if raw is None:
        return fallback
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"REPRO_RUNS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"REPRO_RUNS must be >= 1, got {value}")
    return value


def monte_carlo(
    scenario: Scenario,
    runs: Optional[int] = None,
    *,
    seed: SeedLike = None,
    engine: str = "fast",
    horizon: Optional[int] = None,
    workers: Optional[int] = None,
    store=None,
    tracer=None,
) -> MonteCarloResult:
    """Run ``scenario`` ``runs`` times and aggregate the trajectories.

    ``workers`` shards the runs over the persistent process pool
    (``None`` reads ``REPRO_WORKERS``, defaulting to serial); any
    worker count yields bit-identical results.  ``store`` (a directory
    path or :class:`~repro.sweep.store.ResultStore`) memoises the result
    on disk when the seed has a stable identity — ``None``/generator
    seeds always recompute.
    ``tracer`` attaches a :class:`repro.obs.Tracer` to every run; traced
    experiments bypass the store entirely (a hit would produce no
    events), and the merged event stream is worker-count invariant.
    """
    if runs is None:
        runs = default_runs()
    if engine not in ("fast", "exact", "mega"):
        raise ValueError(
            f"unknown engine {engine!r}; use 'fast', 'exact', or 'mega'"
        )
    workers = default_workers() if workers is None else check_workers(workers)

    # Imported lazily: repro.sweep imports this package.
    from repro.sweep.store import as_store

    store = as_store(store) if tracer is None else None
    key = None
    if store is not None:
        key = store.key(
            scenario, runs, seed=seed, engine=engine, horizon=horizon
        )
        if key is not None:
            hit = store.load(key, scenario)
            if hit is not None:
                return hit

    result = run_sharded(
        scenario, runs, seed=seed, engine=engine, horizon=horizon,
        workers=workers, tracer=tracer,
    )
    if key is not None:
        store.store(key, result)
    return result
