"""The public API surface: imports, version, and the quickstart snippet."""

import importlib

import pytest

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__

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
        """The module docstring's quickstart must actually run."""
        from repro import AttackSpec, Scenario, monte_carlo

        scenario = Scenario(
            protocol="drum", n=120, malicious_fraction=0.1,
            attack=AttackSpec(alpha=0.1, x=128),
        )
        result = monte_carlo(scenario, runs=20, seed=1)
        assert 3 < result.mean_rounds() < 15

    def test_public_items_documented(self):
        """Every public module and exported class carries a docstring."""
        import pkgutil

        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            assert module.__doc__, f"{info.name} lacks a module docstring"
