"""Registers the asyncio runtime with the engine registry.

This module is the canonical pluggable-engine example: it is imported
by :func:`repro.api.engines._ensure_builtin` (or by anyone importing
:mod:`repro.aio`) and registers the ``"aio"`` stack through the same
public :func:`repro.api.engines.register` call a third-party stack
would use — :mod:`repro.api` itself knows nothing about this package
beyond the bootstrap import.
"""

from __future__ import annotations

import repro.api.engines as engines

#: Declared group-size ceiling.  Each node costs a heap entry plus
#: protocol state (not a thread), so the binding limit is loop
#: throughput: beyond ~5·10⁴ nodes a round's control traffic outruns
#: what one loop dispatches per round duration and slow motion stops
#: being "uniform slowdown" and becomes collapse.
AIO_MAX_N = 50_000


def run_aio_engine(exp, *, seed=None, workers=None, tracer=None):
    """Stream ``exp.messages`` through an asyncio cluster (blocking)."""
    from repro.aio.cluster import run_aio_experiment

    return run_aio_experiment(exp.aio_config(), seed=seed, tracer=tracer)


# Importing this module directly (``import repro.aio``) must not leave
# the registry ordered differently from the lazy bootstrap path: force
# the built-in stacks in first, then append ``aio``.  Re-entrancy is
# safe — ``_ensure_builtin`` sets its guard before importing us back.
engines.engines()

SPEC = engines.EngineSpec(
    name="aio",
    runner=run_aio_engine,
    capabilities=engines.EngineCapabilities(
        determinism="wallclock",
        continuous=True,
        max_n=AIO_MAX_N,
    ),
    summary="asyncio service runtime (thousands of nodes on one loop)",
)

engines.register(SPEC, replace_existing=True)
