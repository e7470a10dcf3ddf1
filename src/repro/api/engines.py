"""The declared engine registry behind ``Experiment.run``.

Every execution stack registers an :class:`EngineSpec` here — a name, a
runner, and a declaration of what the stack *can* do
(:class:`EngineCapabilities`: determinism class, continuous time,
group-size ceiling).  ``Experiment.run(engine=...)`` looks the
spec up, checks the experiment against the declared capabilities, and
calls the runner — there is no per-engine ``if``/``elif`` chain
anywhere in :mod:`repro.api`.

The registry is also the single source of "engine X can't do Y" error
messages: :func:`group_size_refusal` builds a uniform refusal that
names the engines that *can*, so the aio stack's and the fast engine's
group-size errors read the same and stay correct as new engines
register.  Every engine honours fault plans, churn tokens
(join/leave/expel) and tracers, so none of those is a capability.

A new stack plugs in with::

    from repro.api import engines

    engines.register(engines.EngineSpec(
        name="mystack",
        runner="my.package.runner:run_experiment",
        capabilities=engines.EngineCapabilities(determinism="bit"),
        summary="my experimental stack",
    ))

``runner`` is either a callable ``(experiment, *, seed, workers,
tracer) -> result`` or a lazy ``"module:attribute"`` import string, so
registering never imports the stack's heavy modules.  Runners must
return a result exposing the unified versioned ``to_dict()`` envelope
(see :mod:`repro.api.results`).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

#: The determinism classes an engine may declare:
#:
#: - ``"bit"`` — repeated seeded runs are byte-identical;
#: - ``"statistical"`` — seeded runs match in distribution (pinned by
#:   equivalence gates rather than byte comparison);
#: - ``"wallclock"`` — the *plan* (who crashes when, who is attacked) is
#:   seed-deterministic but packet interleaving is real-time.
DETERMINISM_CLASSES = ("bit", "statistical", "wallclock")


class EngineCapabilityError(ValueError):
    """An experiment asked an engine for something it declared it can't do."""


@dataclass(frozen=True)
class EngineCapabilities:
    """What one execution stack declares it can honour."""

    #: One of :data:`DETERMINISM_CLASSES`.
    determinism: str = "bit"
    #: Continuous-time stack: events carry ``t`` stamps, not rounds.
    continuous: bool = False
    #: Largest group size the stack accepts (None = unbounded).
    max_n: Optional[int] = None

    def __post_init__(self) -> None:
        if self.determinism not in DETERMINISM_CLASSES:
            raise ValueError(
                f"determinism must be one of {DETERMINISM_CLASSES}, "
                f"got {self.determinism!r}"
            )


Runner = Union[Callable, str]


@dataclass(frozen=True)
class EngineSpec:
    """One registered execution stack."""

    name: str
    #: A callable ``(experiment, *, seed, workers, tracer) -> result``
    #: or a lazy ``"module:attribute"`` import string.
    runner: Runner
    capabilities: EngineCapabilities = field(
        default_factory=EngineCapabilities
    )
    #: One line for tables and ``--help`` text.
    summary: str = ""

    def resolve_runner(self) -> Callable:
        """The runner callable, importing it on first use if lazy."""
        runner = self.runner
        if isinstance(runner, str):
            module_name, _, attr = runner.partition(":")
            if not attr:
                raise ValueError(
                    f"engine {self.name!r}: lazy runner must look like "
                    f"'module:attribute', got {runner!r}"
                )
            runner = getattr(importlib.import_module(module_name), attr)
        return runner

    def check(self, experiment) -> None:
        """Raise :class:`EngineCapabilityError` on a capability mismatch."""
        caps = self.capabilities
        if caps.max_n is not None and experiment.n > caps.max_n:
            raise EngineCapabilityError(
                group_size_refusal(self.name, experiment.n)
            )

    def run(self, experiment, *, seed=None, workers=None, tracer=None):
        """Check capabilities, then execute the experiment."""
        self.check(experiment)
        return self.resolve_runner()(
            experiment, seed=seed, workers=workers, tracer=tracer
        )


_REGISTRY: Dict[str, EngineSpec] = {}


def register(spec: EngineSpec, *, replace_existing: bool = False) -> EngineSpec:
    """Register one engine; returns the spec for chaining."""
    if not spec.name:
        raise ValueError("engine name must be non-empty")
    if spec.name in _REGISTRY and not replace_existing:
        raise ValueError(
            f"engine {spec.name!r} is already registered; pass "
            f"replace_existing=True to override it"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Drop an engine (tests plug in throwaway stacks)."""
    _REGISTRY.pop(name, None)


def engines() -> Tuple[str, ...]:
    """Registered engine names, in registration order."""
    _ensure_builtin()
    return tuple(_REGISTRY)


def get_engine(name: str) -> EngineSpec:
    """The spec for ``name``; unknown names raise a uniform error."""
    _ensure_builtin()
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ValueError(
            f"unknown engine {name!r}; use one of {', '.join(_REGISTRY)}"
        )
    return spec


def capability_table() -> List[Dict[str, object]]:
    """One row per engine — the basis of the docs' capability table."""
    _ensure_builtin()
    rows = []
    for spec in _REGISTRY.values():
        caps = spec.capabilities
        rows.append(
            {
                "engine": spec.name,
                "determinism": caps.determinism,
                "continuous": caps.continuous,
                "max_n": caps.max_n,
                "summary": spec.summary,
            }
        )
    return rows


# -- uniform capability-mismatch messages -----------------------------------


def _capable(predicate: Callable[[EngineCapabilities], bool]) -> List[str]:
    _ensure_builtin()
    return [
        spec.name
        for spec in _REGISTRY.values()
        if predicate(spec.capabilities)
    ]


def _use_instead(predicate: Callable[[EngineCapabilities], bool]) -> str:
    names = _capable(predicate)
    if not names:
        return "no registered engine supports this"
    return "use " + " or ".join(f'engine="{name}"' for name in names)


def group_size_refusal(engine: str, n: int, *, detail: str = "") -> str:
    """The uniform "group too large for this engine" message."""
    spec = get_engine(engine)
    max_n = spec.capabilities.max_n
    roomy = _use_instead(
        lambda c: c.max_n is None or (max_n is not None and c.max_n > max_n)
    )
    if detail:
        detail = f" ({detail})"
    return (
        f'n={n} exceeds engine "{engine}"\'s declared group-size limit '
        f"of {max_n}{detail}; " + roomy
    )


# -- the built-in stacks -----------------------------------------------------

_BUILTIN_REGISTERED = False


def _ensure_builtin() -> None:
    """Register the built-in stacks once, lazily.

    Lazy runners keep this import-light; the ``aio`` stack registers
    *itself* through the public :func:`register` path (see
    :mod:`repro.aio.engine`) — the canonical example of a pluggable
    engine.
    """
    global _BUILTIN_REGISTERED
    if _BUILTIN_REGISTERED:
        return
    _BUILTIN_REGISTERED = True
    from repro.sim.fast import FAST_MAX_N

    register(
        EngineSpec(
            name="exact",
            runner="repro.api.experiment:run_exact_engine",
            capabilities=EngineCapabilities(determinism="bit"),
            summary="object-level round simulator (golden-traced)",
        )
    )
    register(
        EngineSpec(
            name="fast",
            runner="repro.api.experiment:run_fast_engine",
            capabilities=EngineCapabilities(
                determinism="bit", max_n=FAST_MAX_N
            ),
            summary="vectorised Monte-Carlo engine (paper-strength sweeps)",
        )
    )
    register(
        EngineSpec(
            name="mega",
            runner="repro.api.experiment:run_mega_engine",
            capabilities=EngineCapabilities(determinism="bit"),
            summary="packed-bitset engine for mega-scale groups (n to 1e6)",
        )
    )
    register(
        EngineSpec(
            name="des",
            runner="repro.api.experiment:run_des_engine",
            capabilities=EngineCapabilities(
                determinism="bit", continuous=True
            ),
            summary="discrete-event measurement platform (Section 8)",
        )
    )
    # The asyncio service runtime registers itself on import.
    import repro.aio.engine  # noqa: F401
