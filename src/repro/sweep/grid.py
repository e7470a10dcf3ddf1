"""Sweep cells and grid builders.

A :class:`Cell` pins down one grid point completely — config, run
count, seed, engine, metric — in the parent process, before anything
executes.  That is what makes a sweep deterministic (values are a pure
function of the cell list, never of scheduling) and resumable (a cell's
content-address is computable without running it).

Two cell kinds share the class:

- **monte_carlo** (``scenario`` set): a
  :func:`~repro.sim.runner.monte_carlo` experiment on the fast or
  exact round engine; results persist in the store's npz tier.
- **measurement** (``config`` set): a DES
  :func:`~repro.des.cluster.run_throughput_experiment` streaming
  experiment; results persist in the store's envelope-JSON tier.

The grid builders produce the paper's three sweep shapes as
protocol-major cell rows plus a matching empty
:class:`~repro.metrics.report.SeriesReport`, deriving one child seed
per protocol exactly like the historical ``repro.sim.sweeps`` helpers
(so seeded sweep values are unchanged by the orchestration refactor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.adversary.attacks import AttackSpec
from repro.core.config import ProtocolKind
from repro.metrics.report import SeriesReport
from repro.sim.scenario import Scenario
from repro.util import coerce_int, spawn_seeds
from repro.util.rng import SeedLike

ProtocolName = Union[str, ProtocolKind]

#: Metrics a monte_carlo cell can extract.  ``join_latency`` and
#: ``view_convergence`` are churn-aware (NaN on churn-free cells).
MONTE_CARLO_METRICS = (
    "mean_rounds",
    "std_rounds",
    "reliability",
    "join_latency",
    "view_convergence",
)
#: Metrics a measurement cell can extract.
MEASUREMENT_METRICS = ("delivery_ratio", "throughput", "mean_latency_ms")


@dataclass(frozen=True)
class Cell:
    """One sweep grid point, fully determined before execution.

    ``series`` and ``x`` locate the cell in the output figure;
    exactly one of ``scenario`` (round-engine Monte-Carlo) or
    ``config`` (DES measurement cluster) describes the experiment.
    """

    series: str
    x: float
    scenario: Optional[Scenario] = None
    runs: Optional[int] = None
    seed: SeedLike = None
    engine: str = "fast"
    horizon: Optional[int] = None
    metric: str = "mean_rounds"
    #: A :class:`repro.des.ClusterConfig` for measurement cells (typed
    #: loosely to keep the DES stack out of sweep imports).
    config: Optional[object] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "series", str(self.series))
        object.__setattr__(self, "x", float(self.x))
        if (self.scenario is None) == (self.config is None):
            raise ValueError(
                "a Cell needs exactly one of scenario= (monte_carlo) "
                "or config= (measurement)"
            )
        if self.scenario is not None:
            if not isinstance(self.scenario, Scenario):
                raise TypeError(
                    f"scenario must be a Scenario, got {self.scenario!r}"
                )
            if self.engine not in ("fast", "exact", "mega"):
                raise ValueError(
                    f"unknown engine {self.engine!r}; "
                    "use 'fast', 'exact', or 'mega'"
                )
            if self.metric not in MONTE_CARLO_METRICS:
                raise ValueError(
                    f"unknown monte_carlo metric {self.metric!r}; "
                    f"use one of {', '.join(MONTE_CARLO_METRICS)}"
                )
        else:
            if self.metric not in MEASUREMENT_METRICS:
                raise ValueError(
                    f"unknown measurement metric {self.metric!r}; "
                    f"use one of {', '.join(MEASUREMENT_METRICS)}"
                )

    @property
    def kind(self) -> str:
        """``"monte_carlo"`` or ``"measurement"``."""
        return "monte_carlo" if self.scenario is not None else "measurement"


GridRows = List[List[Cell]]


def _protocol_rows(
    protocols: Sequence[ProtocolName],
    seed: SeedLike,
    cell_for,
) -> GridRows:
    """Protocol-major rows with the historical per-protocol seeds."""
    seeds = spawn_seeds(seed, len(protocols))
    return [
        [cell_for(protocol, proto_seed, x) for x in cell_for.x_values]
        for protocol, proto_seed in zip(protocols, seeds)
    ]


@dataclass
class _CellFactory:
    """Builds one cell per (protocol, x) for a sweep shape."""

    x_values: Tuple[float, ...]
    runs: Optional[int]
    max_rounds: int
    engine: str
    metric: str
    attack_for: object = field(repr=False, default=None)
    malicious_fraction: float = 0.0
    n: int = 120

    def __call__(self, protocol: ProtocolName, seed, x: float) -> Cell:
        attack = self.attack_for(x)
        scenario = Scenario(
            protocol=protocol,
            n=self.n,
            malicious_fraction=self.malicious_fraction if attack else 0.0,
            attack=attack,
            max_rounds=self.max_rounds,
        )
        return Cell(
            series=str(ProtocolKind(protocol).value),
            x=float(x),
            scenario=scenario,
            runs=self.runs,
            seed=seed,
            engine=self.engine,
            metric=self.metric,
        )


def rate_grid(
    protocols: Sequence[ProtocolName],
    rates: Sequence[float],
    *,
    n: int = 120,
    alpha: float = 0.1,
    malicious_fraction: float = 0.1,
    runs: Optional[int] = None,
    seed: SeedLike = None,
    max_rounds: int = 400,
    engine: str = "fast",
    metric: str = "mean_rounds",
) -> Tuple[SeriesReport, GridRows]:
    """Figure 3(a)'s grid: propagation time vs per-victim rate ``x``."""
    n = coerce_int("n", n)
    report = SeriesReport(
        name="rate_sweep",
        x_label="x (fabricated msgs/victim/round)",
        x_values=[float(x) for x in rates],
        metadata={"n": n, "alpha": alpha},
    )
    factory = _CellFactory(
        x_values=tuple(float(x) for x in rates),
        runs=runs,
        max_rounds=max_rounds,
        engine=engine,
        metric=metric,
        attack_for=lambda x: AttackSpec(alpha=alpha, x=x) if x > 0 else None,
        malicious_fraction=malicious_fraction,
        n=n,
    )
    return report, _protocol_rows(protocols, seed, factory)


def extent_grid(
    protocols: Sequence[ProtocolName],
    alphas: Sequence[float],
    *,
    x: float = 128.0,
    n: int = 120,
    malicious_fraction: float = 0.1,
    runs: Optional[int] = None,
    seed: SeedLike = None,
    max_rounds: int = 400,
    engine: str = "fast",
    metric: str = "mean_rounds",
) -> Tuple[SeriesReport, GridRows]:
    """Figure 3(b)'s grid: propagation time vs attack extent ``α``."""
    n = coerce_int("n", n)
    report = SeriesReport(
        name="extent_sweep",
        x_label="alpha (fraction of processes attacked)",
        x_values=[float(a) for a in alphas],
        metadata={"n": n, "x": x},
    )
    factory = _CellFactory(
        x_values=tuple(float(a) for a in alphas),
        runs=runs,
        max_rounds=max_rounds,
        engine=engine,
        metric=metric,
        attack_for=lambda a: AttackSpec(alpha=a, x=x),
        malicious_fraction=malicious_fraction,
        n=n,
    )
    return report, _protocol_rows(protocols, seed, factory)


def budget_grid(
    protocols: Sequence[ProtocolName],
    alphas: Sequence[float],
    *,
    budget_per_process: float = 7.2,
    n: int = 120,
    malicious_fraction: float = 0.1,
    runs: Optional[int] = None,
    seed: SeedLike = None,
    max_rounds: int = 400,
    engine: str = "fast",
    metric: str = "mean_rounds",
) -> Tuple[SeriesReport, GridRows]:
    """Figures 7–8's grid: a fixed budget ``B = budget_per_process · n``
    split over each extent in ``alphas``."""
    n = coerce_int("n", n)
    report = SeriesReport(
        name="budget_sweep",
        x_label="alpha (fraction of processes attacked)",
        x_values=[float(a) for a in alphas],
        metadata={"n": n, "budget_per_process": budget_per_process},
    )
    factory = _CellFactory(
        x_values=tuple(float(a) for a in alphas),
        runs=runs,
        max_rounds=max_rounds,
        engine=engine,
        metric=metric,
        attack_for=lambda a: AttackSpec.fixed_budget(
            budget_per_process * n, a, n
        ),
        malicious_fraction=malicious_fraction,
        n=n,
    )
    return report, _protocol_rows(protocols, seed, factory)


def churn_grid(
    protocols: Sequence[ProtocolName],
    churn_fractions: Sequence[float],
    *,
    n: int = 120,
    x: float = 0.0,
    alpha: float = 0.1,
    malicious_fraction: float = 0.1,
    join_round: int = 5,
    leave_round: int = 12,
    runs: Optional[int] = None,
    seed: SeedLike = None,
    max_rounds: int = 400,
    engine: str = "fast",
    metric: str = "reliability",
) -> Tuple[SeriesReport, GridRows]:
    """The churn-storm grid: residual reliability vs churn fraction.

    Each x-axis point ``c`` runs the scenario under a symmetric churn
    storm — a fraction ``c`` of the group joins at ``join_round`` and a
    fraction ``c`` of the correct members logs out at ``leave_round``
    (the plan ``join@J:c; leave@L:c``, resolved identically on every
    engine).  With ``x > 0`` the storm lands on top of a DoS attack of
    extent ``alpha`` and per-victim rate ``x``, which is the paper's
    hard case: Section 10's membership layer rides the protocol under
    test, so a protocol that melts under the flood also loses its
    membership traffic.  ``metric`` may be any monte_carlo metric,
    including the churn-aware ``join_latency`` / ``view_convergence``.
    """
    n = coerce_int("n", n)
    fractions = [float(c) for c in churn_fractions]
    if any(c < 0 or c >= 1 for c in fractions):
        raise ValueError(
            f"churn fractions must be in [0, 1), got {fractions}"
        )
    report = SeriesReport(
        name="churn_sweep",
        x_label="churn fraction (joins and leaves per storm)",
        x_values=fractions,
        metadata={
            "n": n,
            "alpha": alpha,
            "x": x,
            "join_round": join_round,
            "leave_round": leave_round,
        },
    )
    attack = AttackSpec(alpha=alpha, x=x) if x > 0 else None
    seeds = spawn_seeds(seed, len(protocols))
    rows: GridRows = []
    for protocol, proto_seed in zip(protocols, seeds):
        row = []
        for c in fractions:
            faults = (
                f"join@{join_round}:{c:g}; leave@{leave_round}:{c:g}"
                if c > 0
                else None
            )
            scenario = Scenario(
                protocol=protocol,
                n=n,
                malicious_fraction=malicious_fraction if attack else 0.0,
                attack=attack,
                max_rounds=max_rounds,
                faults=faults,
            )
            row.append(
                Cell(
                    series=str(ProtocolKind(protocol).value),
                    x=c,
                    scenario=scenario,
                    runs=runs,
                    seed=proto_seed,
                    engine=engine,
                    metric=metric,
                )
            )
        rows.append(row)
    return report, rows


def scale_grid(
    protocols: Sequence[ProtocolName],
    ns: Sequence[int],
    *,
    budget_per_node: float = 8.0,
    runs: Optional[int] = None,
    seed: SeedLike = None,
    max_rounds: int = 600,
    engine: str = "mega",
    metric: str = "mean_rounds",
) -> Tuple[SeriesReport, GridRows]:
    """The Section 6 asymptotics grid: propagation time vs group size.

    Unlike the other sweep shapes, the x-axis is ``n`` itself, and the
    attack is a *single-victim targeted* one: the adversary concentrates
    its whole budget ``B = budget_per_node · n`` on the source
    (``α = 1/n``).  That is the regime of the paper's asymptotic
    analysis — Drum keeps pushing M outward and propagates in O(log n)
    rounds however hard the source is hit, while pull must wait for the
    source to win a pull-request slot against the flood, which takes
    Θ(n) expected rounds.  ``ns`` accepts integer-like numpy values
    (``np.logspace`` output included) so log-spaced mega-scale grids
    stay cacheable.
    """
    ns = [coerce_int("n", value) for value in ns]
    report = SeriesReport(
        name="scale_sweep",
        x_label="n (group size)",
        x_values=[float(value) for value in ns],
        metadata={"budget_per_node": budget_per_node},
    )
    seeds = spawn_seeds(seed, len(protocols))
    rows: GridRows = []
    for protocol, proto_seed in zip(protocols, seeds):
        row = []
        for n in ns:
            scenario = Scenario(
                protocol=protocol,
                n=n,
                attack=AttackSpec(alpha=1.0 / n, x=budget_per_node * n),
                max_rounds=max_rounds,
            )
            row.append(
                Cell(
                    series=str(ProtocolKind(protocol).value),
                    x=float(n),
                    scenario=scenario,
                    runs=runs,
                    seed=proto_seed,
                    engine=engine,
                    metric=metric,
                )
            )
        rows.append(row)
    return report, rows
