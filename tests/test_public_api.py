"""The public API surface: imports, version, and the quickstart snippet."""

import importlib

import pytest

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__

    def test_top_level_names_are_pinned(self):
        """The front door: one experiment type, its inputs and results,
        the store, tracing, and the four figure grids."""
        assert repro.__all__ == [
            "AttackSpec",
            "Experiment",
            "FaultPlan",
            "JsonlSink",
            "MemorySink",
            "PrometheusSink",
            "ResultStore",
            "Tracer",
            "__version__",
            "budget_grid",
            "churn_grid",
            "extent_grid",
            "rate_grid",
            "result_from_dict",
        ]

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackages_importable(self):
        import repro.adversary
        import repro.analysis
        import repro.core
        import repro.crypto
        import repro.des
        import repro.membership
        import repro.metrics
        import repro.net
        import repro.sim
        import repro.util

    def test_threaded_runtime_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"{repro.__name__}.runtime")

    @pytest.mark.parametrize("module", ["sim.sweeps", "adversary.strategies"])
    def test_sweep_wrappers_are_gone(self, module):
        """A figure is ``builder(...).run(...)``; a strategy sweep is a
        list of ``AttackSpec`` classmethod calls."""
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"{repro.__name__}.{module}")

    def test_subpackage_all_exports_resolve(self):
        import repro.adversary
        import repro.analysis
        import repro.core
        import repro.crypto
        import repro.des
        import repro.membership
        import repro.metrics
        import repro.net
        import repro.sim
        import repro.util

        for module in (
            repro.adversary, repro.analysis, repro.core, repro.crypto,
            repro.des, repro.membership, repro.metrics, repro.net,
            repro.sim, repro.util,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_readme_quickstart_works(self):
        """The README's (and the module docstring's) quickstart runs."""
        from repro import AttackSpec, Experiment

        exp = Experiment(
            protocol="drum", n=120, malicious_fraction=0.1,
            attack=AttackSpec(alpha=0.1, x=128), runs=20,
        )
        result = exp.run("fast", seed=1)
        assert 3 < result.mean_rounds() < 15

    def test_public_items_documented(self):
        """Every public module and exported class carries a docstring."""
        import pkgutil

        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            assert module.__doc__, f"{info.name} lacks a module docstring"
