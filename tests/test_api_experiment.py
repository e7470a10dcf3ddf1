"""The `repro.api.Experiment` builder: one config, every engine."""

import pytest

from repro.adversary import AttackSpec
from repro.api import Experiment
from repro.des.measurement import MeasurementResult
from repro.faults import FaultPlan
from repro.sim.results import MonteCarloResult, RunResult


def small_experiment(**kw):
    defaults = dict(
        protocol="drum", n=16, malicious_fraction=0.125,
        attack=AttackSpec(alpha=0.25, x=8.0),
        max_rounds=60, runs=5,
        round_duration_ms=50.0, send_rate=100.0, messages=5,
    )
    defaults.update(kw)
    return Experiment(**defaults)


class TestConfigTranslation:
    def test_scenario_mirrors_experiment_fields(self):
        exp = small_experiment(faults="loss:0.05")
        scenario = exp.scenario()
        assert scenario.protocol.value == "drum"
        assert scenario.n == 16
        assert scenario.malicious_fraction == 0.125
        assert scenario.attack == exp.attack
        assert scenario.max_rounds == 60
        assert scenario.faults.describe() == "loss:0.05"

    def test_cluster_config_mirrors_experiment_fields(self):
        exp = small_experiment()
        cfg = exp.cluster_config()
        assert cfg.protocol.value == "drum"
        assert cfg.n == 16
        assert cfg.attack == exp.attack
        assert cfg.send_rate == 100.0
        assert cfg.messages == 5
        assert cfg.round_duration_ms == 50.0

    def test_aio_config_mirrors_experiment_fields(self):
        exp = small_experiment()
        cfg = exp.aio_config()
        assert cfg.protocol.value == "drum"
        assert cfg.n == 16
        assert cfg.attack == exp.attack
        assert cfg.round_duration_ms == 50.0
        assert cfg.messages == 5

    def test_fault_spec_string_normalised_once(self):
        exp = Experiment(faults="crash@2-5:0.2")
        assert isinstance(exp.faults, FaultPlan)
        assert exp.faults.describe() == "crash@2-5:0.2"

    def test_with_rebuilds_frozen_experiment(self):
        exp = small_experiment()
        other = exp.with_(protocol="pull", n=32)
        assert other.protocol == "pull"
        assert other.n == 32
        assert exp.n == 16  # original untouched


class TestRunDispatch:
    def test_exact_single_run(self):
        result = small_experiment(runs=None).run("exact", seed=1)
        assert isinstance(result, RunResult)
        assert int(result.counts[0]) == 1

    def test_exact_monte_carlo(self):
        result = small_experiment(runs=3).run("exact", seed=1)
        assert isinstance(result, MonteCarloResult)
        assert result.counts.shape[0] == 3

    def test_fast_monte_carlo(self):
        result = small_experiment(runs=5).run("fast", seed=1)
        assert isinstance(result, MonteCarloResult)
        assert result.counts.shape[0] == 5

    def test_des_measurement(self):
        result = small_experiment().run("des", seed=1)
        assert isinstance(result, MeasurementResult)
        assert result.deliveries

    def test_live_measurement(self):
        """The wall-clock stack measures the same description."""
        result = small_experiment(
            n=5, malicious_fraction=0.0, attack=None, messages=3,
        ).run("aio", seed=1)
        assert isinstance(result, MeasurementResult)
        assert result.messages_sent == 3
        assert result.deliveries

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            small_experiment().run("quantum")

    def test_same_description_runs_everywhere(self):
        """The headline API property: one value, every stack."""
        exp = small_experiment(runs=4)
        exact = exp.run("exact", seed=2)
        fast = exp.run("fast", seed=2)
        des = exp.run("des", seed=2)
        assert exact.counts.shape[0] == 4
        assert fast.counts.shape[0] == 4
        assert des.deliveries
        # Every result speaks the same envelope dialect.
        for result in (exact, fast, des):
            env = result.to_dict()
            assert env["schema"] == "repro.result"
            assert set(env["metrics"]) >= {
                "reliability", "rounds_to_threshold",
                "rounds_to_heal", "latency_ms",
            }

    def test_tracer_attaches_on_round_engines(self):
        from repro.obs import Tracer

        tracer = Tracer()
        small_experiment(runs=None).run("exact", seed=3, tracer=tracer)
        assert tracer.counters.delivered_total > 0


class TestLegacyReexports:
    def test_home_module_imports_do_not_warn(self):
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error", DeprecationWarning)
            from repro.des.cluster import ClusterConfig  # noqa: F401

    def test_legacy_docstrings_point_to_experiment(self):
        from repro.des.cluster import ClusterConfig
        from repro.sim.scenario import Scenario

        for cls in (Scenario, ClusterConfig):
            assert "repro.api.Experiment" in cls.__doc__
