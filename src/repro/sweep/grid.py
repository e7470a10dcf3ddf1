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

A paper figure is one :class:`Grid` — its report header plus
protocol-major rows of cells — and ``Grid.run(...)`` is the one way to
evaluate it.  The builders (:func:`rate_grid`, :func:`extent_grid`,
:func:`budget_grid`, :func:`churn_grid`, :func:`scale_grid`) differ
only in their header and in the scenario each ``(protocol, x)`` point
runs; every one derives one child seed per protocol from ``seed``, so a
seeded figure is a pure function of its arguments::

    from repro import rate_grid

    report = rate_grid(
        ["drum", "push", "pull"], [0, 32, 64, 128], runs=200, seed=1,
    ).run(workers=4, store="results/.cache")
    print(report.to_json())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.adversary.attacks import AttackSpec
from repro.core.config import ProtocolKind
from repro.metrics.report import SeriesReport
from repro.sim.runner import check_engine
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
            check_engine(self.engine)
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


@dataclass(frozen=True)
class Grid:
    """One figure: its report header and protocol-major rows of cells.

    Row ``i`` is one protocol's series over ``x_values``.  The shape is
    checked here, once: an empty grid or a ragged one would otherwise
    mis-slice series silently when the values come back.
    """

    name: str
    x_label: str
    x_values: Tuple[float, ...]
    metadata: dict
    rows: Tuple[Tuple[Cell, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_values", tuple(map(float, self.x_values)))
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        if not self.rows:
            raise ValueError("protocols must be a non-empty sequence")
        series = [{cell.series for cell in row} for row in self.rows]
        protocols = set().union(*series)
        if len(protocols) != len(self.rows) or any(
            len(labels) != 1 for labels in series
        ):
            raise ValueError(
                f"cell grid has {len(self.rows)} rows for "
                f"{len(protocols)} protocols; expected one row per protocol"
            )
        widths = {len(row) for row in self.rows}
        if widths != {len(self.x_values)}:
            raise ValueError(
                f"ragged cell grid: row lengths {sorted(widths)} must all "
                f"equal the {len(self.x_values)}-point x-axis"
            )

    @property
    def cells(self) -> List[Cell]:
        """Every cell, protocol-major — the order a sweep evaluates."""
        return [cell for row in self.rows for cell in row]

    def run(
        self,
        *,
        store=None,
        workers: Optional[int] = None,
        tracer=None,
    ) -> SeriesReport:
        """Evaluate every cell through
        :class:`~repro.sweep.orchestrator.SweepRunner` and return the
        filled figure report.

        Cell seeds are fixed, so ``workers`` changes scheduling, never
        values.  ``store`` (a directory or ``ResultStore``) keeps every
        computed cell: a rerun, or the next run of an interrupted one,
        recomputes only the cells the store does not already hold.
        """
        # Imported lazily: the orchestrator imports Cell from here.
        from repro.sweep.orchestrator import SweepRunner

        runner = SweepRunner(store=store, workers=workers, tracer=tracer)
        result = runner.run(self.name, self.cells)
        return result.fill_report(
            SeriesReport(
                self.name, self.x_label, list(self.x_values),
                metadata=dict(self.metadata),
            )
        )


def _grid(
    name: str,
    x_label: str,
    metadata: dict,
    protocols: Sequence[ProtocolName],
    x_values: Sequence,
    scenario_for: Callable[[ProtocolName, object], Scenario],
    *,
    seed: SeedLike,
    **cell,
) -> Grid:
    """The figure of ``scenario_for(protocol, x)`` cells, one child seed
    per protocol; ``cell`` holds the shared ``runs``, ``engine`` and
    ``metric``."""
    seeds = spawn_seeds(seed, len(protocols))
    rows = [
        [
            Cell(
                series=ProtocolKind(protocol).value, x=float(x),
                scenario=scenario_for(protocol, x), seed=proto_seed, **cell,
            )
            for x in x_values
        ]
        for protocol, proto_seed in zip(protocols, seeds)
    ]
    return Grid(name, x_label, x_values, metadata, rows)


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
) -> Grid:
    """Figure 3(a)'s grid: propagation time vs per-victim rate ``x``."""
    n = coerce_int("n", n)

    def scenario_for(protocol, x):
        attack = AttackSpec(alpha=alpha, x=x) if x > 0 else None
        return Scenario(
            protocol=protocol, n=n,
            malicious_fraction=malicious_fraction if attack else 0.0,
            attack=attack, max_rounds=max_rounds,
        )

    return _grid(
        "rate_sweep", "x (fabricated msgs/victim/round)",
        {"n": n, "alpha": alpha},
        protocols, [float(x) for x in rates], scenario_for,
        runs=runs, seed=seed, engine=engine, metric=metric,
    )


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
) -> Grid:
    """Figure 3(b)'s grid: propagation time vs attack extent ``α``."""
    n = coerce_int("n", n)

    def scenario_for(protocol, alpha):
        return Scenario(
            protocol=protocol, n=n, malicious_fraction=malicious_fraction,
            attack=AttackSpec(alpha=alpha, x=x), max_rounds=max_rounds,
        )

    return _grid(
        "extent_sweep", "alpha (fraction of processes attacked)",
        {"n": n, "x": x},
        protocols, [float(a) for a in alphas], scenario_for,
        runs=runs, seed=seed, engine=engine, metric=metric,
    )


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
) -> Grid:
    """Figures 7–8's grid: a fixed budget ``B = budget_per_process · n``
    split over each extent in ``alphas``."""
    n = coerce_int("n", n)

    def scenario_for(protocol, alpha):
        return Scenario(
            protocol=protocol, n=n, malicious_fraction=malicious_fraction,
            attack=AttackSpec.fixed_budget(budget_per_process * n, alpha, n),
            max_rounds=max_rounds,
        )

    return _grid(
        "budget_sweep", "alpha (fraction of processes attacked)",
        {"n": n, "budget_per_process": budget_per_process},
        protocols, [float(a) for a in alphas], scenario_for,
        runs=runs, seed=seed, engine=engine, metric=metric,
    )


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
) -> Grid:
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
    attack = AttackSpec(alpha=alpha, x=x) if x > 0 else None

    def scenario_for(protocol, c):
        return Scenario(
            protocol=protocol, n=n,
            malicious_fraction=malicious_fraction if attack else 0.0,
            attack=attack, max_rounds=max_rounds,
            faults=(
                f"join@{join_round}:{c:g}; leave@{leave_round}:{c:g}"
                if c > 0 else None
            ),
        )

    metadata = {
        "n": n, "alpha": alpha, "x": x,
        "join_round": join_round, "leave_round": leave_round,
    }
    return _grid(
        "churn_sweep", "churn fraction (joins and leaves per storm)",
        metadata, protocols, fractions, scenario_for,
        runs=runs, seed=seed, engine=engine, metric=metric,
    )


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
) -> Grid:
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

    def scenario_for(protocol, n):
        return Scenario(
            protocol=protocol, n=n,
            attack=AttackSpec(alpha=1.0 / n, x=budget_per_node * n),
            max_rounds=max_rounds,
        )

    return _grid(
        "scale_sweep", "n (group size)", {"budget_per_node": budget_per_node},
        protocols, [coerce_int("n", value) for value in ns], scenario_for,
        runs=runs, seed=seed, engine=engine, metric=metric,
    )
