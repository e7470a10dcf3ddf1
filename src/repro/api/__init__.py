"""The stable experiment front door.

:class:`Experiment` is one declarative description of a gossip
experiment — group, protocol, attack, faults, timing — that runs on any
registered execution stack with ``.run(engine=...)``:

- ``"exact"`` — the object-level round simulator (every protocol
  mechanism really executes; golden-traced);
- ``"fast"`` — the vectorised Monte-Carlo engine (paper-strength
  1000-run sweeps, and groups to n = 10⁶ and past);
- ``"mega"`` — the packed-bitset engine, statistically pinned to
  ``"fast"``;
- ``"des"`` — the discrete-event measurement platform (throughput /
  latency streams, Section 8 methodology);
- ``"aio"`` — the asyncio wall-clock service runtime over loopback or
  real UDP (thousands of nodes per process; see :mod:`repro.aio`).

Engines dispatch through the declared registry in
:mod:`repro.api.engines`; each registers an
:class:`~repro.api.engines.EngineSpec` with its capabilities
(determinism class / continuous time / group-size ceiling), and
capability mismatches raise one uniform
:class:`~repro.api.engines.EngineCapabilityError` naming the engines
that *can*.

Attach a :class:`repro.obs.Tracer` via ``.run(..., tracer=t)`` and every
stack emits the same typed event taxonomy (see :mod:`repro.obs`).

:func:`result_from_dict` deserialises any result produced by the
unified ``to_dict()`` envelope (``RunResult``, ``MonteCarloResult``,
``MeasurementResult``) back into the right class.

The per-stack native configs are built for you
(``.scenario()`` / ``.cluster_config()`` / ``.aio_config()``); import
them from their home modules (:mod:`repro.des.cluster`,
:mod:`repro.aio.cluster`) if you really need the stack-level API.
"""

from repro.api import engines
from repro.api.engines import (
    EngineCapabilities,
    EngineCapabilityError,
    EngineSpec,
)
from repro.api.experiment import Experiment
from repro.api.results import (
    decode_envelope,
    encode_envelope,
    result_from_dict,
)

__all__ = [
    "EngineCapabilities",
    "EngineCapabilityError",
    "EngineSpec",
    "Experiment",
    "decode_envelope",
    "encode_envelope",
    "engines",
    "result_from_dict",
]
