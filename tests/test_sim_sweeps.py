"""Tests for running a figure grid: ``builder(...).run(...)``."""

import dataclasses

import pytest

from repro.sweep import ResultStore
from repro.sweep.grid import budget_grid, extent_grid, rate_grid


class TestRateSweep:
    def test_structure(self):
        report = rate_grid(
            ["drum", "push"], [0, 32], n=50, runs=20, seed=1,
        ).run()
        assert report.x_values == [0.0, 32.0]
        assert set(report.series) == {"drum", "push"}
        assert report.metadata["n"] == 50

    def test_zero_rate_means_no_attack(self):
        report = rate_grid(["drum"], [0], n=50, runs=20, seed=2).run()
        assert report.series["drum"][0] < 10

    def test_push_degrades_drum_does_not(self):
        report = rate_grid(
            ["drum", "push"], [0, 64], n=60, runs=60, seed=3,
        ).run()
        drum = report.series["drum"]
        push = report.series["push"]
        assert push[1] - push[0] > 3 * max(0.1, drum[1] - drum[0])


class TestExtentSweep:
    def test_structure(self):
        report = extent_grid(
            ["pull"], [0.1, 0.3], x=32, n=50, runs=20, seed=4
        ).run()
        assert report.x_values == [0.1, 0.3]
        assert "pull" in report.series

    def test_growing_extent_grows_damage(self):
        report = extent_grid(
            ["push"], [0.1, 0.5], x=64, n=60, runs=60, seed=5,
        ).run()
        times = report.series["push"]
        assert times[1] > times[0] * 0.8  # more victims, no less damage


class TestBudgetSweep:
    def test_structure(self):
        report = budget_grid(
            ["drum"], [0.1, 0.9], budget_per_process=7.2,
            n=50, runs=20, seed=6,
        ).run()
        assert report.metadata["budget_per_process"] == 7.2

    def test_drum_worst_case_is_broad(self):
        report = budget_grid(
            ["drum"], [0.1, 0.9], budget_per_process=36.0,
            n=60, runs=60, seed=7,
        ).run()
        times = report.series["drum"]
        assert times[1] > times[0]

    def test_report_roundtrips_to_json(self):
        from repro.metrics.report import SeriesReport

        report = budget_grid(["drum"], [0.5], n=50, runs=10, seed=8).run()
        clone = SeriesReport.from_json(report.to_json())
        assert clone.series == report.series


class TestGridGuards:
    """The v2 grid runner crashed with IndexError on an empty protocol
    list and silently mis-sliced ragged grids; a Grid refuses both when
    it is built."""

    def test_empty_protocols_rejected(self):
        for builder in (rate_grid, extent_grid, budget_grid):
            with pytest.raises(ValueError, match="non-empty"):
                builder([], [0.1], n=50, runs=10, seed=1)

    def test_row_count_mismatch_rejected(self):
        grid = rate_grid(["drum", "push"], [0.0], n=50, seed=1)
        drum, push = grid.rows
        with pytest.raises(ValueError, match="one row per protocol"):
            dataclasses.replace(grid, rows=[drum, drum])
        with pytest.raises(ValueError, match="one row per protocol"):
            dataclasses.replace(grid, rows=[drum + push])

    def test_ragged_grid_rejected(self):
        grid = rate_grid(["drum", "push"], [0.0, 16.0], n=50, seed=1)
        drum, push = grid.rows
        with pytest.raises(ValueError, match="ragged"):
            # One series shorter than the x-axis.
            dataclasses.replace(grid, rows=[drum, push[:1]])

    def test_resumable_sweep_through_store(self, tmp_path):
        grid = rate_grid(["drum"], [0, 16], n=40, runs=10, seed=2)
        first = grid.run(store=tmp_path)
        again = grid.run(store=tmp_path)
        assert again.to_json() == first.to_json()
        store = ResultStore(tmp_path)
        for cell in grid.cells:
            assert store.path_for(store.key_for(cell)).exists()
