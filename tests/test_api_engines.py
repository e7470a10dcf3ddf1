"""The declared engine registry behind ``Experiment.run``."""

import pytest

from repro.api import Experiment, engines
from repro.api.engines import (
    EngineCapabilities,
    EngineCapabilityError,
    EngineSpec,
    capability_table,
    get_engine,
)
from repro.faults import FaultPlan


class TestRegistry:
    def test_all_five_stacks_registered_in_order(self):
        assert engines.engines() == ("exact", "fast", "mega", "des", "aio")

    def test_retired_live_engine_names_aio(self):
        with pytest.raises(ValueError, match="unknown engine 'live'") as exc:
            Experiment(n=8).run("live")
        assert "aio" in str(exc.value)

    def test_unknown_engine_uniform_error(self):
        with pytest.raises(ValueError, match="unknown engine 'quantum'"):
            get_engine("quantum")

    def test_duplicate_registration_rejected(self):
        spec = get_engine("exact")
        with pytest.raises(ValueError, match="already registered"):
            engines.register(spec)
        # replace_existing is the explicit override path.
        assert engines.register(spec, replace_existing=True) is spec

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            engines.register(EngineSpec(name="", runner=lambda e, **kw: None))

    def test_third_party_engine_registers_and_runs(self):
        seen = {}

        def runner(exp, *, seed=None, workers=None, tracer=None):
            seen["exp"] = exp
            return "ran"

        engines.register(
            EngineSpec(
                name="teststack",
                runner=runner,
            )
        )
        try:
            assert "teststack" in engines.engines()
            assert Experiment(n=8).run("teststack") == "ran"
            assert seen["exp"].n == 8
        finally:
            engines.unregister("teststack")
        assert "teststack" not in engines.engines()

    def test_lazy_runner_string_resolves_on_first_use(self):
        spec = EngineSpec(
            name="lazy",
            runner="repro.api.experiment:run_exact_engine",
        )
        from repro.api.experiment import run_exact_engine

        assert spec.resolve_runner() is run_exact_engine

    def test_malformed_lazy_runner_rejected(self):
        spec = EngineSpec(name="bad", runner="no.colon.here")
        with pytest.raises(ValueError, match="module:attribute"):
            spec.resolve_runner()

    def test_determinism_class_validated(self):
        with pytest.raises(ValueError, match="determinism"):
            EngineCapabilities(determinism="vibes")

    def test_capability_table_covers_every_engine(self):
        rows = {row["engine"]: row for row in capability_table()}
        assert set(rows) == set(engines.engines())
        assert rows["fast"]["max_n"] is None
        assert rows["aio"]["determinism"] == "wallclock"
        assert rows["aio"]["continuous"] is True
        # Every engine churns, honours fault plans and traces: the table
        # has no column for any of them.
        for row in rows.values():
            assert not {"churn", "faults", "tracing"} & set(row)


class TestCapabilityChecks:
    def test_plan_on_faultless_engine_refused(self):
        # Every engine honours fault plans and tracers: there is no
        # capability to declare a stack without them.
        with pytest.raises(TypeError):
            EngineCapabilities(faults=False)
        with pytest.raises(TypeError):
            EngineCapabilities(tracing=False)

    def test_live_churn_refusal_is_the_registry_message(self):
        # The registry refuses churn on no engine, aio included.
        exp = Experiment(n=16, faults="join@3:0.2")
        for name in engines.engines():
            get_engine(name).check(exp)

    def test_churn_refusal_names_capable_engines(self):
        # Every engine churns, so there is no churn capability to declare.
        with pytest.raises(TypeError, match="churn"):
            EngineCapabilities(churn=False)

    def test_aio_group_size_refusal_names_roomier_engines(self):
        from repro.aio.cluster import AioClusterConfig

        expected = (
            'n=50001 exceeds engine "aio"\'s declared group-size limit of '
            '50000; use engine="exact" or engine="fast" or engine="mega" '
            'or engine="des"'
        )
        with pytest.raises(EngineCapabilityError) as exc:
            Experiment(n=50_001).run("aio")
        assert str(exc.value) == expected
        # The config guard reads the same registry message.
        with pytest.raises(ValueError) as exc:
            AioClusterConfig(n=50_001)
        assert str(exc.value) == expected

    def test_fast_takes_a_group_past_1e5(self):
        result = Experiment(n=100_001, runs=1, max_rounds=12).run(
            "fast", seed=5
        )
        assert result.runs == 1
        assert result.scenario.n == 100_001

    def test_fast_refuses_an_over_budget_block_and_names_monte_carlo(self):
        from repro.sim.fast import run_fast
        from repro.sim.scenario import Scenario

        # 64 runs over 100 001 ids pass FAST_BLOCK by 64 run-ids; one
        # run of any size is a block of its own.
        with pytest.raises(ValueError, match="monte_carlo") as exc:
            run_fast(Scenario(n=100_001), runs=64, seed=1)
        assert "Experiment.run" in str(exc.value)

    def test_aio_group_size_ceiling_checked_before_running(self):
        from repro.api.engines import AIO_MAX_N

        with pytest.raises(EngineCapabilityError, match="group-size limit"):
            Experiment(n=AIO_MAX_N + 1).run("aio")

    def test_empty_plan_passes_every_engine_check(self):
        exp = Experiment(n=8, faults=FaultPlan.parse(""))
        for name in engines.engines():
            get_engine(name).check(exp)  # must not raise
