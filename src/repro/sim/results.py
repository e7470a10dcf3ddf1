"""Result containers for simulation experiments.

Both engines produce, per run, the number of alive correct processes
holding M at the *beginning* of each round (``counts[0] == 1``: only the
source).  Every metric in the paper's simulation figures derives from
these trajectories plus the attacked/non-attacked split:

- propagation time to a coverage threshold (Figures 2, 3, 7, 8, 9, 12);
- its standard deviation across runs (Figure 4);
- the per-round CDF of coverage (Figures 5, 13, 14);
- per-subset propagation (attacked vs non-attacked, Figure 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.sim.scenario import Scenario


#: Version of the unified result envelope produced by ``to_dict`` on
#: every result class (RunResult, MonteCarloResult, MeasurementResult).
#: Bump on any breaking change to the envelope layout.
SCHEMA = "repro.result"
SCHEMA_VERSION = 1


def _none_if_nan(value) -> Optional[float]:
    """JSON-safe float: nan (a censored metric) becomes None."""
    if value is None:
        return None
    value = float(value)
    return None if math.isnan(value) else value


def _nanmean_or_none(values) -> Optional[float]:
    """``np.nanmean`` as a JSON-safe float: None, without numpy's
    empty-slice warning, when every entry is NaN."""
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).all():
        return None
    return float(np.nanmean(values))


def check_envelope(data: dict, kind: str) -> None:
    """Validate a ``to_dict`` envelope before deserialising ``kind``."""
    if data.get("schema") != SCHEMA:
        raise ValueError(
            f"not a {SCHEMA} document: schema={data.get('schema')!r}"
        )
    if data.get("version") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported {SCHEMA} version {data.get('version')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    if data.get("kind") != kind:
        raise ValueError(
            f"expected kind={kind!r}, got {data.get('kind')!r}"
        )


def rounds_to_count(trajectory: np.ndarray, target: int) -> float:
    """First round index at which ``trajectory`` reaches ``target``.

    Returns ``nan`` when the trajectory never gets there (a censored
    run).  ``trajectory`` must be non-decreasing.
    """
    reached = trajectory >= target
    if not reached.any():
        return float("nan")
    return float(np.argmax(reached))


@dataclass
class RunResult:
    """One simulation run's trajectory."""

    scenario: Scenario
    #: Holders of M among alive correct processes at the start of each round.
    counts: np.ndarray
    #: Holders within the attacked subset (includes the source).
    counts_attacked: np.ndarray
    #: Holders within the non-attacked alive correct subset.
    counts_non_attacked: np.ndarray
    #: Per-process delivery round (nan where M never arrived), indexed by
    #: process id over the alive correct processes.  Only the exact
    #: engine fills this in.
    delivery_rounds: Optional[np.ndarray] = None
    #: Graceful-degradation metrics, filled only on fault-injected runs
    #: (``scenario.faults`` set) so faultless result JSON — including the
    #: pinned golden traces — is unchanged.  Residual reliability is the
    #: fraction of *reachable* alive correct processes holding M at the
    #: end (reachable = not permanently crashed nor permanently cut from
    #: the source; see ``FaultSchedule.reachable_ids``).
    residual_reliability: Optional[float] = None
    #: Rounds from the last partition heal until threshold coverage
    #: (0 when the threshold was met during the partition; nan when the
    #: run was censored).  None when the plan has no partition.
    rounds_to_heal: Optional[float] = None
    #: Churn metrics, filled only when the plan has join/leave/expel
    #: tokens: ``{"timeline": [...], "join_latency": float|None,
    #: "view_convergence": float|None, "joiner_holders": int,
    #: "joiner_count": int}``.  ``timeline`` is the resolved membership
    #: event sequence (``FaultSchedule.churn_timeline``) — the
    #: cross-stack determinism witness; ``join_latency`` averages, over
    #: joiners reachable at the horizon, the rounds from join to first
    #: delivery (censored joiners count at the horizon);
    #: ``view_convergence`` averages the rounds until the whole group's
    #: views reflect a membership event.
    churn: Optional[dict] = None

    def rounds_to_threshold(self) -> float:
        """Rounds until the scenario's coverage threshold was met."""
        return rounds_to_count(self.counts, self.scenario.threshold_count())

    def final_coverage(self) -> float:
        """Fraction of alive correct processes that ever got M."""
        return float(self.counts[-1]) / self.scenario.num_alive_correct

    def to_jsonable(self) -> dict:
        """A canonical, JSON-serialisable view of the run.

        This is the representation the golden-trace tests freeze:
        ``json.dumps(result.to_jsonable(), sort_keys=True, indent=1)``
        of a seeded run must stay byte-identical across engine
        optimisations.
        """
        out = {
            "scenario": self.scenario.describe(),
            "counts": [int(v) for v in self.counts],
            "counts_attacked": [int(v) for v in self.counts_attacked],
            "counts_non_attacked": [int(v) for v in self.counts_non_attacked],
            "delivery_rounds": None
            if self.delivery_rounds is None
            else [
                None if math.isnan(v) else float(v)
                for v in self.delivery_rounds
            ],
        }
        # Fault metrics are keyed in only when present, so faultless
        # traces (and the golden files pinning them) stay byte-identical.
        if self.residual_reliability is not None:
            out["residual_reliability"] = float(self.residual_reliability)
        if self.rounds_to_heal is not None:
            out["rounds_to_heal"] = (
                None
                if math.isnan(self.rounds_to_heal)
                else float(self.rounds_to_heal)
            )
        if self.churn is not None:
            out["churn"] = self.churn
        return out

    def to_dict(self) -> dict:
        """The unified versioned result envelope (see ``repro.api``).

        Distinct from :meth:`to_jsonable` (the golden-pinned legacy
        view, which must never change shape): every result class —
        RunResult, MonteCarloResult, MeasurementResult — shares the
        ``{schema, version, kind, config, metrics, data}`` layout with
        common metric names (``reliability``, ``rounds_to_threshold``,
        ``rounds_to_heal``, ``latency_ms``).  Round-based results have
        no latency, so ``latency_ms`` is None here.
        """
        reliability = (
            self.final_coverage()
            if self.residual_reliability is None
            else float(self.residual_reliability)
        )
        metrics = {
            "reliability": reliability,
            "rounds_to_threshold": _none_if_nan(self.rounds_to_threshold()),
            "rounds_to_heal": _none_if_nan(self.rounds_to_heal),
            "latency_ms": None,
        }
        data = {
            "counts": [int(v) for v in self.counts],
            "counts_attacked": [int(v) for v in self.counts_attacked],
            "counts_non_attacked": [int(v) for v in self.counts_non_attacked],
            "delivery_rounds": None
            if self.delivery_rounds is None
            else [_none_if_nan(v) for v in self.delivery_rounds],
        }
        if self.residual_reliability is not None:
            data["residual_reliability"] = float(self.residual_reliability)
        if self.rounds_to_heal is not None:
            data["rounds_to_heal"] = _none_if_nan(self.rounds_to_heal)
        if self.churn is not None:
            data["churn"] = self.churn
            metrics["join_latency"] = _none_if_nan(
                self.churn.get("join_latency")
            )
            metrics["view_convergence"] = _none_if_nan(
                self.churn.get("view_convergence")
            )
        return {
            "schema": SCHEMA,
            "version": SCHEMA_VERSION,
            "kind": "run",
            "config": self.scenario.to_dict(),
            "metrics": metrics,
            "data": data,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        """Rebuild a :class:`RunResult` from :meth:`to_dict` output."""
        check_envelope(data, "run")
        body = data["data"]
        delivery = body.get("delivery_rounds")
        heal = body.get("rounds_to_heal", None)
        return cls(
            scenario=Scenario.from_dict(data["config"]),
            counts=np.asarray(body["counts"], dtype=np.int32),
            counts_attacked=np.asarray(
                body["counts_attacked"], dtype=np.int32
            ),
            counts_non_attacked=np.asarray(
                body["counts_non_attacked"], dtype=np.int32
            ),
            delivery_rounds=None
            if delivery is None
            else np.asarray(
                [float("nan") if v is None else v for v in delivery]
            ),
            residual_reliability=body.get("residual_reliability"),
            rounds_to_heal=(
                float("nan") if heal is None else float(heal)
            )
            if "rounds_to_heal" in body
            else None,
            churn=body.get("churn"),
        )


@dataclass
class MonteCarloResult:
    """Aggregated trajectories of many independent runs."""

    scenario: Scenario
    #: (runs, rounds+1) holder counts; rows padded with their final value.
    counts: np.ndarray
    counts_attacked: np.ndarray
    counts_non_attacked: np.ndarray
    #: Per-run count of *reachable* processes holding M at the end of
    #: the run.  Filled only on fault-injected runs; engines that track
    #: per-process state compute it exactly, and
    #: :meth:`residual_reliability` falls back to clipping the final
    #: totals when it is absent (e.g. results from an old cache entry).
    reachable_holders: Optional[np.ndarray] = None
    #: (runs, 2) float64 churn metrics per run — column 0 the mean
    #: join latency (rounds from a joiner's join to its first delivery,
    #: censored joiners counted at the horizon), column 1 the mean
    #: view-convergence time (rounds until all correct members' views
    #: reflect a membership event).  Filled only under churn plans.
    churn_stats: Optional[np.ndarray] = None

    @property
    def runs(self) -> int:
        return self.counts.shape[0]

    @property
    def rounds_simulated(self) -> int:
        return self.counts.shape[1] - 1

    # -- propagation time ---------------------------------------------------

    def rounds_to_threshold(self) -> np.ndarray:
        """Per-run rounds to the coverage threshold (nan when censored)."""
        target = self.scenario.threshold_count()
        return self._per_run_rounds(self.counts, target)

    def rounds_to_subset_threshold(
        self, subset: str, fraction: Optional[float] = None
    ) -> np.ndarray:
        """Per-run rounds for the attacked / non-attacked subset alone.

        The subset threshold applies ``fraction`` (default: the
        scenario's coverage fraction) to the subset size — Figure 6
        plots propagation "to the attacked processes" and "to the
        non-attacked processes".  Note the simulation stops at the
        scenario's *global* threshold; to measure a subset fraction
        higher than the global trajectory guarantees, run the scenario
        with ``threshold=1.0``.
        """
        if subset == "attacked":
            trajectories = self.counts_attacked
            size = self.scenario.num_attacked
        elif subset == "non_attacked":
            trajectories = self.counts_non_attacked
            size = self.scenario.num_alive_correct - self.scenario.num_attacked
        else:
            raise ValueError(f"unknown subset {subset!r}")
        if size == 0:
            return np.zeros(self.runs)
        if fraction is None:
            fraction = self.scenario.threshold
        target = max(1, math.ceil(fraction * size - 1e-9))
        return self._per_run_rounds(trajectories, target)

    def mean_rounds(self) -> float:
        """Mean propagation time; censored runs count as max_rounds."""
        return float(np.nanmean(self._censored(self.rounds_to_threshold())))

    def std_rounds(self) -> float:
        """Std of the propagation time across runs."""
        return float(np.nanstd(self._censored(self.rounds_to_threshold())))

    def censored_runs(self) -> int:
        """Runs that never reached the threshold within max_rounds."""
        return int(np.isnan(self.rounds_to_threshold()).sum())

    # -- graceful degradation ---------------------------------------------------

    def residual_reliability(self) -> np.ndarray:
        """Per-run fraction of reachable processes holding M at the end.

        Under a fault plan, full coverage may be impossible (processes
        crashed for good, or stranded by a partition that never heals
        inside ``max_rounds``); this is coverage measured against what
        was *achievable*: holders within ``FaultSchedule.reachable_ids``
        over that reachable set's size.  Without faults it degenerates
        to plain final coverage.
        """
        schedule = self.scenario.fault_schedule()
        if schedule is None:
            return self.counts[:, -1] / self.scenario.num_alive_correct
        reachable = len(schedule.reachable_ids(self.scenario.max_rounds))
        if self.reachable_holders is not None:
            return self.reachable_holders / reachable
        # Totals-only fallback: final counts can include processes that
        # received M and then crashed for good, so clip at 1.
        return np.minimum(self.counts[:, -1] / reachable, 1.0)

    def rounds_to_heal(self) -> Optional[np.ndarray]:
        """Per-run rounds from the last partition heal to threshold
        coverage (0 when coverage won during the partition, nan when
        censored).  None when the plan has no partition."""
        schedule = self.scenario.fault_schedule()
        if schedule is None or schedule.last_heal_round() == 0:
            return None
        return np.maximum(
            self.rounds_to_threshold() - schedule.last_heal_round(), 0.0
        )

    def join_latency(self) -> Optional[np.ndarray]:
        """Per-run mean rounds from join to a joiner's first delivery
        (None when the plan has no churn)."""
        if self.churn_stats is None:
            return None
        return self.churn_stats[:, 0]

    def view_convergence(self) -> Optional[np.ndarray]:
        """Per-run mean rounds until every correct member's view
        reflects a membership event (None when the plan has no churn)."""
        if self.churn_stats is None:
            return None
        return self.churn_stats[:, 1]

    # -- coverage CDFs --------------------------------------------------------

    def coverage_by_round(self) -> np.ndarray:
        """Mean fraction of alive correct processes holding M per round."""
        return self.counts.mean(axis=0) / self.scenario.num_alive_correct

    def subset_coverage_by_round(self, subset: str) -> np.ndarray:
        """Mean per-round coverage within one subset."""
        if subset == "attacked":
            size = self.scenario.num_attacked
            data = self.counts_attacked
        elif subset == "non_attacked":
            size = self.scenario.num_alive_correct - self.scenario.num_attacked
            data = self.counts_non_attacked
        else:
            raise ValueError(f"unknown subset {subset!r}")
        if size == 0:
            return np.ones(self.counts.shape[1])
        return data.mean(axis=0) / size

    # -- stable serialisation ------------------------------------------------

    def to_dict(self) -> dict:
        """The unified versioned result envelope (see ``repro.api``).

        ``metrics`` carries run-averaged summaries under the shared
        names; ``data`` preserves the full per-run trajectories, so
        :meth:`from_dict` rebuilds a result supporting every derived
        metric.
        """
        heal = self.rounds_to_heal()
        metrics = {
            "reliability": float(np.mean(self.residual_reliability())),
            "rounds_to_threshold": _nanmean_or_none(
                self._censored(self.rounds_to_threshold())
            ),
            "rounds_to_heal": None if heal is None else _nanmean_or_none(heal),
            "latency_ms": None,
        }
        data = {
            "counts": [[int(v) for v in row] for row in self.counts],
            "counts_attacked": [
                [int(v) for v in row] for row in self.counts_attacked
            ],
            "counts_non_attacked": [
                [int(v) for v in row] for row in self.counts_non_attacked
            ],
            "reachable_holders": None
            if self.reachable_holders is None
            else [int(v) for v in self.reachable_holders],
        }
        if self.churn_stats is not None:
            data["churn_stats"] = [
                [float(v) for v in row] for row in self.churn_stats
            ]
            metrics["join_latency"] = _nanmean_or_none(self.churn_stats[:, 0])
            metrics["view_convergence"] = _nanmean_or_none(
                self.churn_stats[:, 1]
            )
        return {
            "schema": SCHEMA,
            "version": SCHEMA_VERSION,
            "kind": "monte_carlo",
            "config": self.scenario.to_dict(),
            "metrics": metrics,
            "data": data,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MonteCarloResult":
        """Rebuild a :class:`MonteCarloResult` from :meth:`to_dict`."""
        check_envelope(data, "monte_carlo")
        body = data["data"]
        holders = body.get("reachable_holders")
        churn_stats = body.get("churn_stats")
        return cls(
            scenario=Scenario.from_dict(data["config"]),
            counts=np.asarray(body["counts"], dtype=np.int32),
            counts_attacked=np.asarray(
                body["counts_attacked"], dtype=np.int32
            ),
            counts_non_attacked=np.asarray(
                body["counts_non_attacked"], dtype=np.int32
            ),
            reachable_holders=None
            if holders is None
            else np.asarray(holders, dtype=np.int32),
            churn_stats=None
            if churn_stats is None
            else np.asarray(churn_stats, dtype=np.float64),
        )

    # -- internals -------------------------------------------------------------

    def _per_run_rounds(self, trajectories: np.ndarray, target: int) -> np.ndarray:
        reached = trajectories >= target
        ever = reached.any(axis=1)
        first = np.argmax(reached, axis=1).astype(float)
        first[~ever] = np.nan
        return first

    def _censored(self, rounds: np.ndarray) -> np.ndarray:
        out = rounds.copy()
        out[np.isnan(out)] = self.scenario.max_rounds
        return out
