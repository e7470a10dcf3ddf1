"""The :class:`Experiment` builder: one config, every registered engine.

An :class:`Experiment` holds the protocol-level description shared by
every stack (group composition, fan-out, loss, attack, faults) plus the
per-stack knobs that only some stacks read (Monte-Carlo run counts,
stream rate, round duration).  ``.run(engine=...)`` translates the
description into the stack's native config — a
:class:`~repro.sim.scenario.Scenario`,
:class:`~repro.des.cluster.ClusterConfig`, or
:class:`~repro.aio.cluster.AioClusterConfig` — and executes it.

The translation is the point: the paper compares the same attack on the
analytical model, the simulations, and the measured cluster, and the
historical way to do that here was to hand-build three config objects
and keep their fields in sync by eye.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.adversary.attacks import AttackSpec
from repro.faults.plan import FaultPlan


@dataclass(frozen=True)
class Experiment:
    """One declarative experiment, runnable on any execution stack.

    Fields in the first block describe the experiment itself and feed
    every engine.  The second block holds per-stack execution knobs:
    ``runs`` (fast/exact aggregation), ``round_duration_ms`` /
    ``send_rate`` / ``messages`` (des/aio streams).  Unused knobs are
    simply ignored by the other engines, so one ``Experiment`` value
    really does run everywhere.
    """

    protocol: str = "drum"
    n: int = 50
    fan_out: int = 4
    loss: float = 0.01
    malicious_fraction: float = 0.0
    attack: Optional[AttackSpec] = None
    faults: Optional[Union[FaultPlan, str]] = None
    #: Coverage threshold for the round-based engines.
    threshold: float = 0.99
    max_rounds: int = 500

    # -- per-stack execution knobs ------------------------------------------
    #: Monte-Carlo runs for ``engine="fast"`` (and ``engine="exact"``
    #: when aggregating).  None means one exact run / the REPRO_RUNS
    #: default for fast.
    runs: Optional[int] = None
    round_duration_ms: float = 1000.0
    round_jitter: float = 0.1
    purge_rounds: int = 10
    send_rate: float = 40.0
    messages: int = 400

    def __post_init__(self) -> None:
        if isinstance(self.faults, str):
            object.__setattr__(self, "faults", FaultPlan.parse(self.faults))

    def with_(self, **changes) -> "Experiment":
        """Copy with ``changes`` applied."""
        return replace(self, **changes)

    # -- per-stack configs ---------------------------------------------------

    def scenario(self):
        """The round-engine :class:`~repro.sim.scenario.Scenario`."""
        from repro.sim.scenario import Scenario

        return Scenario(
            protocol=self.protocol,
            n=self.n,
            fan_out=self.fan_out,
            loss=self.loss,
            malicious_fraction=self.malicious_fraction,
            attack=self.attack,
            threshold=self.threshold,
            max_rounds=self.max_rounds,
            faults=self.faults,
        )

    def _group(self) -> dict:
        """The shared :class:`~repro.des.cluster.GroupConfig` fields."""
        return dict(
            protocol=self.protocol,
            n=self.n,
            malicious_fraction=self.malicious_fraction,
            attack=self.attack,
            fan_out=self.fan_out,
            loss=self.loss,
            round_duration_ms=self.round_duration_ms,
            round_jitter=self.round_jitter,
            purge_rounds=self.purge_rounds,
            send_rate=self.send_rate,
            messages=self.messages,
            faults=self.faults,
        )

    def cluster_config(self):
        """The DES :class:`~repro.des.cluster.ClusterConfig`."""
        from repro.des.cluster import ClusterConfig

        return ClusterConfig(**self._group())

    def aio_config(self):
        """The asyncio :class:`~repro.aio.cluster.AioClusterConfig`."""
        from repro.aio.cluster import AioClusterConfig

        return AioClusterConfig(**self._group())

    # -- execution -----------------------------------------------------------

    def run(
        self,
        engine: str = "fast",
        *,
        seed=None,
        workers: Optional[int] = None,
        tracer=None,
    ):
        """Run the experiment on ``engine`` and return its result.

        - ``"exact"``: a :class:`~repro.sim.results.RunResult` when
          :attr:`runs` is None, else a
          :class:`~repro.sim.results.MonteCarloResult` over ``runs``
          object-level runs;
        - ``"fast"``: a :class:`~repro.sim.results.MonteCarloResult`;
        - ``"mega"``: a :class:`~repro.sim.mega.MegaResult` from the
          packed-bitset engine — same aggregate metrics, with the
          engine's peak state in bytes;
        - ``"des"``: a :class:`~repro.des.measurement.MeasurementResult`
          from one streamed throughput experiment;
        - ``"aio"``: a :class:`~repro.des.measurement.MeasurementResult`
          from the asyncio service runtime (:mod:`repro.aio`) streaming
          :attr:`messages` messages at :attr:`send_rate` through a real
          cluster on one event loop (wall-clock: takes
          ``messages / send_rate`` seconds plus drain time).

        ``workers`` fans Monte-Carlo shards over the process-wide
        persistent pool (:mod:`repro.sim.executor`) — spawned on first
        use, reused by every subsequent ``run``; shard results return
        through its pickles and are assembled positionally — and never
        changes values, only wall-clock.  ``tracer`` (a
        :class:`repro.obs.Tracer`) attaches the unified observability
        layer on every engine; pass ``Tracer(..., thread_safe=True)``
        for ``"aio"``.  Every result class exposes the
        same versioned ``to_dict()`` envelope.

        Dispatch goes through the declared engine registry
        (:mod:`repro.api.engines`): the spec's capability declaration is
        checked first, so a group past a stack's declared ceiling (more
        than 50 000 nodes on ``"aio"``) raises one uniform
        :class:`~repro.api.engines.EngineCapabilityError` naming the
        engines that *can*.
        """
        from repro.api.engines import get_engine

        return get_engine(engine).run(
            self, seed=seed, workers=workers, tracer=tracer
        )


# -- built-in engine runners -------------------------------------------------
#
# Registered lazily by ``repro.api.engines._ensure_builtin`` as
# ``"repro.api.experiment:run_<name>_engine"`` import strings.  Each is
# a plain function ``(experiment, *, seed, workers, tracer) -> result``
# — the same contract third-party stacks register with.


def _monte_carlo(
    engine: str, exp: Experiment, *, seed=None, workers=None, tracer=None
):
    """``exp.runs`` runs of ``exp`` on one of the round engines."""
    from repro.sim.runner import monte_carlo

    return monte_carlo(
        exp.scenario(), exp.runs, seed=seed, engine=engine,
        workers=workers, tracer=tracer,
    )


def run_exact_engine(exp: Experiment, *, seed=None, workers=None, tracer=None):
    """One object-level run, or a Monte-Carlo batch when ``runs`` is set."""
    if exp.runs is None:
        from repro.sim.engine import run_exact

        return run_exact(exp.scenario(), seed=seed, tracer=tracer)
    return _monte_carlo(
        "exact", exp, seed=seed, workers=workers, tracer=tracer
    )


run_fast_engine = functools.partial(_monte_carlo, "fast")
run_mega_engine = functools.partial(_monte_carlo, "mega")


def run_des_engine(exp: Experiment, *, seed=None, workers=None, tracer=None):
    from repro.des.cluster import run_throughput_experiment

    return run_throughput_experiment(
        exp.cluster_config(), seed=seed, tracer=tracer
    )


def run_aio_engine(exp: Experiment, *, seed=None, workers=None, tracer=None):
    """Stream ``exp.messages`` through an asyncio cluster (blocking)."""
    from repro.aio.cluster import run_aio_experiment

    return run_aio_experiment(exp.aio_config(), seed=seed, tracer=tracer)
