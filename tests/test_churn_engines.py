"""Churn storms as a first-class scenario across the execution stacks.

The contract under test: one fault plan with churn tokens
(``join@R[-R]:F; leave@R[-R]:F; expel@R:F``) resolves — seedlessly,
via :class:`repro.faults.schedule.FaultSchedule` — to one membership
timeline, and every stack realises exactly that timeline:

- **exact / fast / mega**: byte-identical repeated seeded runs,
  worker- and shard-count invariance, and statistical equivalence
  across engine families (``tests/equivalence.py``);
- **des**: the same timeline disseminated for real over the protocol
  under test (Section 10), statistically equivalent reliability;
- **aio**: a loud ``ValueError`` — the fixed-membership wall-clock
  runtime cannot honour churn, and must say so instead of silently
  ignoring it.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from equivalence import compare_results, wilson_ci
from repro.aio import AioCluster, AioClusterConfig
from repro.api import Experiment, encode_envelope
from repro.des.cluster import ClusterConfig, _Cluster, run_throughput_experiment
from repro.des.measurement import MeasurementResult
from repro.faults.plan import FaultPlan
from repro.faults.schedule import FaultSchedule
from repro.obs import Tracer
from repro.sim.engine import RoundSimulator
from repro.sim.fast import run_fast
from repro.sim.mega import run_mega
from repro.sim.results import MonteCarloResult
from repro.sim.runner import monte_carlo
from repro.sim.scenario import Scenario

CHURN = "join@4:0.2; leave@9:0.1; expel@13:0.1"


def scenario(protocol="drum", n=40, **kwargs):
    return Scenario(
        protocol=protocol, n=n, fan_out=4, loss=0.01, max_rounds=60,
        faults=CHURN, **kwargs
    )


def envelope(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True, default=float)


class TestTimelineIdentity:
    """Every stack realises the one schedule-resolved timeline."""

    def test_schedule_timeline_is_deterministic(self):
        plan = FaultPlan.parse(CHURN)
        a = FaultSchedule(plan, n=40, num_alive_correct=40)
        b = FaultSchedule(FaultPlan.parse(plan.describe()), n=40,
                          num_alive_correct=40)
        assert a.churn_timeline() == b.churn_timeline()
        assert a.total_n == b.total_n == 48

    def test_exact_reports_the_resolved_timeline(self):
        sc = scenario()
        result = RoundSimulator(sc, seed=1).run()
        expected = [dict(r) for r in sc.fault_schedule().churn_timeline()]
        assert result.churn["timeline"] == expected

    def test_des_reports_the_resolved_timeline(self):
        config = ClusterConfig(
            protocol="drum", n=20, malicious_fraction=0.0, fan_out=4,
            loss=0.01, round_duration_ms=100.0, send_rate=40.0,
            messages=40, faults=CHURN,
        )
        schedule = FaultSchedule(
            config.faults, n=20, num_alive_correct=config.num_correct
        )
        result = run_throughput_experiment(config, seed=5)
        expected = [dict(r) for r in schedule.churn_timeline()]
        assert result.churn["timeline"] == expected

    def test_round_engines_share_the_exact_timeline(self):
        # fast/mega carry per-run churn stats; their membership model is
        # driven by the identical FaultSchedule object, so the witness
        # is the schedule itself plus matching joiner accounting.
        sc = scenario()
        schedule = sc.fault_schedule()
        exact = RoundSimulator(sc, seed=3).run()
        assert exact.churn["joiner_count"] == sum(
            count for _, _, _, count in schedule.join_blocks()
        )
        fast = run_fast(sc, 10, seed=3)
        mega = run_mega(sc, 10, seed=3)
        assert fast.churn_stats.shape == (10, 2)
        assert mega.churn_stats.shape == (10, 2)


class TestSeededDeterminism:
    """Byte-identical repeated seeded runs on every round engine."""

    def test_fast_envelope_is_byte_identical(self):
        sc = scenario()
        assert envelope(run_fast(sc, 25, seed=11)) == envelope(
            run_fast(sc, 25, seed=11)
        )

    def test_mega_envelope_is_byte_identical(self):
        sc = scenario()
        assert envelope(run_mega(sc, 8, seed=11)) == envelope(
            run_mega(sc, 8, seed=11)
        )

    def test_exact_envelope_is_byte_identical(self):
        sc = scenario(n=30)
        a = RoundSimulator(sc, seed=11).run()
        b = RoundSimulator(sc, seed=11).run()
        assert envelope(a) == envelope(b)

    def test_fast_worker_count_is_immaterial(self):
        sc = scenario()
        one = monte_carlo(sc, 30, seed=7, engine="fast", workers=1)
        two = monte_carlo(sc, 30, seed=7, engine="fast", workers=2)
        assert envelope(one) == envelope(two)
        assert np.array_equal(one.churn_stats, two.churn_stats)

    def test_mega_worker_count_is_immaterial(self):
        sc = scenario()
        one = monte_carlo(sc, 6, seed=7, engine="mega", workers=1)
        two = monte_carlo(sc, 6, seed=7, engine="mega", workers=2)
        assert envelope(one) == envelope(two)

    def test_exact_worker_count_is_immaterial(self):
        sc = scenario(n=30)
        one = monte_carlo(sc, 8, seed=7, engine="exact", workers=1)
        two = monte_carlo(sc, 8, seed=7, engine="exact", workers=2)
        assert envelope(one) == envelope(two)


class TestCrossEngineEquivalence:
    """Engine families agree distributionally under the same storm."""

    def test_fast_vs_mega(self):
        sc = scenario()
        fast = run_fast(sc, 60, seed=21)
        mega = run_mega(sc, 60, seed=22)
        report = compare_results(fast, mega)
        assert report.passed, report.describe()

    def test_exact_vs_fast(self):
        sc = scenario(n=30)
        exact = monte_carlo(sc, 40, seed=31, engine="exact", workers=2)
        fast = run_fast(sc, 60, seed=32)
        report = compare_results(exact, fast)
        assert report.passed, report.describe()

    def test_join_latency_agrees_across_families(self):
        # The fast/mega awareness-lag model is an approximation of the
        # exact engine's real dissemination; join latency (joiner-local
        # rounds to first delivery, starting at 1) must land close.
        # view_convergence is deliberately NOT compared: fast/mega
        # report the modelled lag constant, exact the realised rounds.
        sc = scenario()
        exact = monte_carlo(sc, 30, seed=41, engine="exact", workers=2)
        fast = run_fast(sc, 60, seed=42)
        mega = run_mega(sc, 30, seed=43)
        e = float(np.nanmean(exact.join_latency()))
        f = float(np.nanmean(fast.join_latency()))
        m = float(np.nanmean(mega.join_latency()))
        assert abs(e - f) < 0.75, (e, f)
        assert abs(e - m) < 0.75, (e, m)
        assert min(e, f, m) >= 1.0

    def test_residual_reliability_is_over_certified_and_alive(self):
        # Departed members must not depress residual reliability: with
        # no attack and mild loss, coverage of the reachable set is
        # essentially total on both engine families.
        sc = scenario()
        fast = run_fast(sc, 40, seed=51)
        mega = run_mega(sc, 12, seed=52)
        assert float(fast.residual_reliability().mean()) > 0.98
        assert float(mega.residual_reliability().mean()) > 0.98

    def test_exact_residual_reliability_floor(self):
        # Membership events ride the multicast itself on the exact
        # engine, so the storm competes with the payload for the
        # bounded channels; Drum must still cover the certified-and-alive
        # set.
        result = RoundSimulator(scenario(n=30), seed=2026).run()
        assert result.residual_reliability >= 0.95


class TestAggregateTraces:
    """fast and mega trace deliveries as the exact engine does: the
    initial group's match ``counts``, joiners' are tagged apart."""

    @pytest.mark.parametrize("faults", [None, CHURN], ids=["static", "churn"])
    @pytest.mark.parametrize("engine", ["fast", "mega"])
    def test_delivered_events_reconcile_with_counts(self, engine, faults):
        sc = Scenario(
            protocol="drum", n=40, fan_out=4, loss=0.01, max_rounds=60,
            faults=faults,
        )
        tracer = Tracer()
        result = monte_carlo(sc, 6, seed=5, engine=engine, tracer=tracer)
        counters = tracer.counters
        joiners = counters.delivered_by_via.get("joiner", 0)
        assert counters.delivered_total - joiners == result.counts[:, -1].sum()
        assert (joiners > 0) == (faults is not None)


class TestDesEquivalence:
    """The DES stack realises the same storm, disseminated for real."""

    CONFIG = dict(
        protocol="drum", n=20, malicious_fraction=0.0, fan_out=4,
        loss=0.01, round_duration_ms=100.0, send_rate=40.0, messages=60,
        faults=CHURN,
    )

    def test_seeded_determinism(self):
        # Message serials are scoped to the cluster, so two seeded runs
        # in one process encode byte for byte alike.
        config = ClusterConfig(**self.CONFIG)
        a = run_throughput_experiment(config, seed=9)
        b = run_throughput_experiment(config, seed=9)
        assert encode_envelope(a) == encode_envelope(b)

    def test_reliability_statistically_matches_fast(self):
        config = ClusterConfig(**self.CONFIG)
        des = run_throughput_experiment(config, seed=13)
        delivered = set()
        eligible = set(des.reachable_receivers)
        for record in des.deliveries:
            if record.receiver in eligible:
                delivered.add((record.receiver, record.msg_id))
        ci_des = wilson_ci(
            len(delivered), des.messages_sent * len(eligible)
        )

        sc = Scenario(
            protocol="drum", n=20, fan_out=4, loss=0.01, max_rounds=60,
            faults=CHURN,
        )
        fast = run_fast(sc, 100, seed=13)
        rr = fast.residual_reliability()
        ci_fast = wilson_ci(int(np.round(rr.sum())), int(rr.size))
        assert not (
            ci_des[1] < ci_fast[0] or ci_fast[1] < ci_des[0]
        ), (ci_des, ci_fast)

    def test_churn_metrics_present_and_sane(self):
        config = ClusterConfig(**self.CONFIG)
        result = run_throughput_experiment(config, seed=17)
        churn = result.churn
        assert churn["joined"] == 4
        assert churn["left"] == 2
        assert churn["expelled"] == 2
        assert churn["join_latency"] >= 1.0
        assert churn["view_convergence"] >= 1.0
        assert churn["events_applied"] > 0

    def test_envelope_round_trips(self):
        config = ClusterConfig(**self.CONFIG)
        result = run_throughput_experiment(config, seed=19)
        rebuilt = MeasurementResult.from_dict(result.to_dict())
        assert rebuilt.churn == result.churn
        assert envelope(rebuilt) == envelope(result)

    def test_rejects_churn_free_plan(self):
        # A churn-free plan keeps the static group: no CA, no probe, no
        # membership events.
        config = ClusterConfig(**{**self.CONFIG, "faults": "crash@5:0.1"})
        cluster = _Cluster(config, seed=1)
        assert not cluster.churn and not hasattr(cluster, "ca")
        tracer = Tracer()
        run_throughput_experiment(config, seed=1, tracer=tracer)
        churny = {
            "member_join", "member_leave", "member_expel", "suspect",
            "rehabilitate",
        }
        assert not churny & set(tracer.counters.by_type)
        assert tracer.counters.crashes > 0

    def test_churn_free_envelope_unchanged(self):
        # The measurement envelope only grows a "churn" key when churn
        # ran: fault-only experiments keep their historical bytes.
        config = ClusterConfig(**{**self.CONFIG, "faults": "crash@5:0.1"})
        result = run_throughput_experiment(config, seed=1)
        assert result.churn is None
        assert "churn" not in result.to_dict()["data"]
        assert "churn" not in result.to_jsonable()


class TestExperimentApi:
    """One Experiment, every engine, same fault spec."""

    def test_des_engine_routes_to_churn_experiment(self):
        exp = Experiment(
            protocol="drum", n=20, fan_out=4, loss=0.01, faults=CHURN,
            messages=40, round_duration_ms=100.0,
        )
        result = exp.run(engine="des", seed=3)
        assert isinstance(result, MeasurementResult)
        assert result.churn is not None
        assert result.churn["joined"] == 4

    def test_des_engine_without_churn_keeps_legacy_path(self):
        exp = Experiment(
            protocol="drum", n=20, fan_out=4, loss=0.01,
            faults="crash@5:0.1", messages=40, round_duration_ms=100.0,
        )
        result = exp.run(engine="des", seed=3)
        assert result.churn is None

    def test_fast_engine_carries_churn_stats(self):
        exp = Experiment(
            protocol="drum", n=40, fan_out=4, loss=0.01, faults=CHURN,
            runs=10, max_rounds=60,
        )
        result = exp.run(engine="fast", seed=3)
        assert result.churn_stats is not None
        assert float(np.nanmean(result.join_latency())) >= 1.0


class TestLiveRejectsChurn:
    """Where the wall-clock (``aio``) stack still refuses churn: tokens
    injected into a running group built without them.  Configured
    churn runs on it like on every other engine."""

    def test_live_config_accepts_churn(self):
        assert AioClusterConfig(n=8, faults="join@3:0.2").faults.has_churn

    def test_live_inject_error_names_the_offending_spec(self):
        async def go():
            cluster = AioCluster(
                AioClusterConfig(n=8, round_duration_ms=50.0), seed=1
            )
            await cluster.start()
            try:
                with pytest.raises(ValueError, match=r"join@3:0\.2"):
                    cluster.inject_faults("join@3:0.2")
            finally:
                await cluster.stop()

        asyncio.run(go())

    def test_live_engine_via_api_churns(self):
        exp = Experiment(
            protocol="drum", n=8, loss=0.0, round_duration_ms=50.0,
            send_rate=20.0, messages=4, faults="leave@3:0.2",
        )
        result = exp.run(engine="aio", seed=1)
        assert result.churn["left"] == 2

    def test_live_still_accepts_plain_fault_plans(self):
        config = AioClusterConfig(n=8, faults="crash@3:0.2")
        assert config.faults is not None
