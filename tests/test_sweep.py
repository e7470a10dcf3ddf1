"""Tests for the resumable sweep orchestrator and its result store."""

import itertools
import json

import numpy as np
import pytest

from repro.adversary import AttackSpec
from repro.api import Experiment
from repro.des import ClusterConfig, run_throughput_experiment
from repro.obs import Tracer
from repro.sim import Scenario, monte_carlo
from repro.sweep import (
    Cell,
    ResultStore,
    SweepRunner,
    as_store,
    rate_grid,
)
from repro.sweep.orchestrator import sweep_identity
from repro.sweep.store import MANIFEST_SCHEMA, MANIFEST_VERSION


def mc_cell(series="drum", x=0.0, n=40, seed=3, runs=8, **kwargs):
    scenario = Scenario(protocol=series, n=n, max_rounds=100)
    return Cell(
        series=series, x=x, scenario=scenario, runs=runs, seed=seed, **kwargs
    )


def small_grid(seed=3):
    _, rows = rate_grid(
        ["drum", "push"], [0.0, 32.0], n=40, runs=8, seed=seed,
        max_rounds=100,
    )
    return [cell for row in rows for cell in row]


class TestCell:
    def test_needs_exactly_one_config(self):
        with pytest.raises(ValueError, match="exactly one"):
            Cell(series="drum", x=0.0)
        with pytest.raises(ValueError, match="exactly one"):
            Cell(
                series="drum", x=0.0,
                scenario=Scenario(protocol="drum", n=40),
                config=ClusterConfig(protocol="drum", n=10),
            )

    def test_rejects_bad_engine_and_metric(self):
        with pytest.raises(ValueError, match="engine"):
            mc_cell(engine="warp")
        with pytest.raises(ValueError, match="metric"):
            mc_cell(metric="delivery_ratio")
        with pytest.raises(ValueError, match="metric"):
            Cell(
                series="drum", x=0.0,
                config=ClusterConfig(protocol="drum", n=10),
                metric="mean_rounds",
            )

    def test_kind(self):
        assert mc_cell().kind == "monte_carlo"
        cell = Cell(
            series="drum", x=0.0,
            config=ClusterConfig(protocol="drum", n=10),
            metric="delivery_ratio",
        )
        assert cell.kind == "measurement"


class TestResultStore:
    def test_as_store_coercions(self, tmp_path):
        assert as_store(None) is None
        store = as_store(tmp_path)
        assert isinstance(store, ResultStore)
        assert as_store(store) is store
        with pytest.raises(TypeError):
            as_store(42)

    def test_cache_is_npz_tier_at_same_root(self, tmp_path):
        # One store, one root: a Monte-Carlo cell's entry is the npz
        # file monte_carlo(store=...) reads and writes.
        store = ResultStore(tmp_path)
        cell = mc_cell()
        key = store.key_for(cell)
        result = monte_carlo(
            cell.scenario, cell.runs, seed=cell.seed, store=store
        )
        assert store.path_for(key) == tmp_path / f"{key}.npz"
        assert store.path_for(key).exists()
        loaded, status = store.load_cell(cell, key)
        assert status == "hit"
        assert np.array_equal(loaded.counts, result.counts)

    def test_key_matches_monte_carlo_cache_key(self, tmp_path):
        # The orchestrator and monte_carlo(store=...) must share entries.
        store = ResultStore(tmp_path)
        cell = mc_cell()
        assert store.key_for(cell) == store.key(
            cell.scenario, cell.runs, seed=cell.seed, engine=cell.engine,
        )

    def test_monte_carlo_and_sweep_share_an_entry(self, tmp_path):
        cell = mc_cell()
        monte_carlo(
            cell.scenario, cell.runs, seed=cell.seed,
            store=ResultStore(tmp_path),
        )
        swept = SweepRunner(store=tmp_path).run("shared", [cell])
        assert swept.computed == 0
        assert swept.outcomes[0].source == "store"

    def test_measurement_key_pinned(self):
        # A literal pin: the envelope-tier key must not move when the
        # store code does.
        cell = Cell(
            series="drum", x=16.0, seed=7, metric="throughput",
            config=ClusterConfig(
                protocol="drum", n=20, malicious_fraction=0.1,
                attack=AttackSpec(alpha=0.1, x=16.0), messages=10,
                faults="crash@3:0.1",
            ),
        )
        assert ResultStore("unused").key_for(cell) == (
            "6a2391afb1773b64507d50d928e91de0baa5677811c7113b617657ee8b5ac120"
        )

    def test_unseeded_cells_are_uncacheable(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.key_for(mc_cell(seed=None)) is None
        assert (
            store.key_for(
                mc_cell(seed=np.random.default_rng(1))
            )
            is None
        )

    def test_envelope_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        config = ClusterConfig(
            protocol="drum", n=8, messages=10, send_rate=50.0
        )
        result = run_throughput_experiment(config, seed=5)
        store.store_envelope("k1", result)
        loaded = store.load_envelope("k1")
        assert loaded is not None
        assert loaded.delivery_ratio() == result.delivery_ratio()

    def test_envelope_miss_and_corruption_are_none(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.load_envelope("absent") is None
        store.envelope_path("bad").parent.mkdir(parents=True, exist_ok=True)
        store.envelope_path("bad").write_text("{not json")
        assert store.load_envelope("bad") is None
        store.envelope_path("wrong").write_text('{"schema": "nope"}')
        assert store.load_envelope("wrong") is None

    def test_manifest_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "version": MANIFEST_VERSION,
            "name": "m",
            "identity": "abc",
            "cells": [],
        }
        store.store_manifest("m", manifest)
        assert store.load_manifest("m") == manifest

    def test_manifest_schema_validated(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.load_manifest("absent") is None
        store.manifest_path("bad").parent.mkdir(parents=True, exist_ok=True)
        store.manifest_path("bad").write_text("[]")
        assert store.load_manifest("bad") is None
        store.manifest_path("v9").write_text(
            json.dumps({"schema": MANIFEST_SCHEMA, "version": 99})
        )
        assert store.load_manifest("v9") is None


class TestSweepIdentity:
    def test_stable_and_discriminating(self):
        cells = small_grid()
        assert sweep_identity("s", cells) == sweep_identity("s", small_grid())
        assert sweep_identity("s", cells) != sweep_identity("t", cells)
        assert sweep_identity("s", cells) != sweep_identity(
            "s", small_grid(seed=4)
        )

    def test_uncanonicalisable_grid_has_no_identity(self):
        cell = mc_cell(seed=np.random.default_rng(1))
        assert sweep_identity("s", [cell]) is None
        # seed=None still canonicalises: the grid has an identity, the
        # cell is just individually uncacheable.
        assert sweep_identity("s", [mc_cell(seed=None)]) is not None


class TestSweepRunner:
    def test_values_match_direct_monte_carlo(self, tmp_path):
        cell = mc_cell()
        result = SweepRunner(store=tmp_path).run("basic", [cell])
        direct = monte_carlo(
            cell.scenario, runs=cell.runs, seed=cell.seed
        ).mean_rounds()
        assert result.values == [direct]
        assert result.computed == 1
        assert result.cache_hits == 0

    def test_empty_sweep_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one cell"):
            SweepRunner(store=tmp_path).run("empty", [])

    def test_non_cell_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="cells\\[0\\]"):
            SweepRunner(store=tmp_path).run("bad", ["drum"])

    def test_worker_count_invariance(self, tmp_path):
        # Every Monte-Carlo engine x fault plan x horizon, with more
        # than one pool call per cell (two fast shards, one exact call
        # per run at workers=2, one mega task per run): the stored npz
        # files must be byte-identical, not just the metric values.
        runs = {"fast": 65, "exact": 3, "mega": 3}
        cells = [
            Cell(
                series=engine, x=float(i),
                scenario=Scenario(
                    protocol="drum", n=40, malicious_fraction=0.1,
                    attack=AttackSpec(alpha=0.1, x=32), max_rounds=40,
                    faults=plan,
                ),
                runs=runs[engine], seed=5, engine=engine, horizon=horizon,
            )
            for i, (engine, plan, horizon) in enumerate(
                itertools.product(
                    ("fast", "exact", "mega"),
                    (None, "crash@2-4:0.1", "join@3:0.1; leave@5:0.05"),
                    (None, 60),
                )
            )
        ]
        serial = SweepRunner(store=tmp_path / "a", workers=1).run("w", cells)
        pooled = SweepRunner(store=tmp_path / "b", workers=2).run("w", cells)
        assert serial.values == pooled.values
        stored = {
            side: {
                path.name: path.read_bytes()
                for path in (tmp_path / side).glob("*.npz")
            }
            for side in ("a", "b")
        }
        assert len(stored["a"]) == len(cells)
        assert stored["a"] == stored["b"]

    def test_repeat_is_all_manifest_hits(self, tmp_path):
        runner = SweepRunner(store=tmp_path)
        cells = small_grid()
        first = runner.run("again", cells)
        second = runner.run("again", cells)
        assert second.values == first.values
        assert second.computed == 0
        assert second.cache_hits == len(cells)
        assert all(o.source == "manifest" for o in second.outcomes)

    def test_manifest_values_survive_store_deletion(self, tmp_path):
        runner = SweepRunner(store=tmp_path)
        cells = small_grid()
        first = runner.run("orphan", cells)
        for npz in tmp_path.glob("*.npz"):
            npz.unlink()
        second = runner.run("orphan", cells)
        assert second.values == first.values
        assert second.computed == 0

    def test_no_resume_still_hits_store(self, tmp_path):
        runner = SweepRunner(store=tmp_path)
        cells = small_grid()
        first = runner.run("fresh", cells)
        second = runner.run("fresh", cells, resume=False)
        assert second.values == first.values
        assert second.computed == 0
        assert all(o.source == "store" for o in second.outcomes)

    def test_changed_grid_invalidates_manifest(self, tmp_path):
        runner = SweepRunner(store=tmp_path)
        runner.run("drift", small_grid(seed=3))
        second = runner.run("drift", small_grid(seed=4))
        assert second.computed == len(small_grid())

    def test_uncacheable_cells_recompute_every_run(self, tmp_path):
        runner = SweepRunner(store=tmp_path)
        cell = mc_cell(seed=None)
        first = runner.run("unseeded", [cell])
        second = runner.run("unseeded", [cell])
        assert first.computed == second.computed == 1
        manifest = ResultStore(tmp_path).load_manifest("unseeded")
        assert manifest["cells"][0]["status"] == "uncacheable"
        assert manifest["cells"][0]["value"] is None

    def test_ephemeral_runner_without_store(self):
        result = SweepRunner().run("ephemeral", [mc_cell()])
        assert result.computed == 1

    def test_series_and_fill_report(self, tmp_path):
        report, rows = rate_grid(
            ["drum", "push"], [0.0, 32.0], n=40, runs=8, seed=3,
            max_rounds=100,
        )
        result = SweepRunner(store=tmp_path).run(
            "fill", [cell for row in rows for cell in row]
        )
        series = result.series()
        assert list(series) == ["drum", "push"]
        assert all(len(v) == 2 for v in series.values())
        filled = result.fill_report(report)
        assert filled.series == series

    def test_measurement_cells_use_envelope_tier(self, tmp_path):
        config = ClusterConfig(
            protocol="drum", n=8, messages=10, send_rate=50.0
        )
        cell = Cell(
            series="drum", x=0.0, config=config, seed=5,
            metric="delivery_ratio",
        )
        runner = SweepRunner(store=tmp_path)
        first = runner.run("des", [cell], resume=True)
        ResultStore(tmp_path).manifest_path("des").unlink()
        second = runner.run("des", [cell])
        assert second.values == first.values
        assert second.computed == 0
        assert second.outcomes[0].source == "store"
        key = ResultStore(tmp_path).key_for(cell)
        assert ResultStore(tmp_path).envelope_path(key).exists()

    def test_churn_measurement_cell_runs_the_churn(self):
        # A churn plan is a membership input to the one DES host: the
        # sweep cell, the des engine and run_throughput_experiment see one
        # group.
        exp = Experiment(
            protocol="drum", n=20, fan_out=4, loss=0.01,
            faults="join@4:0.2; leave@9:0.1; expel@13:0.1",
            messages=40, round_duration_ms=100.0,
        )
        config = exp.cluster_config()
        cell = Cell(
            series="drum", x=0.0, config=config, seed=9,
            metric="delivery_ratio",
        )
        swept = SweepRunner().run("des-churn", [cell]).values[0]
        assert swept == exp.run(engine="des", seed=9).delivery_ratio()
        assert swept < 1.0  # departed members never get the tail
        assert run_throughput_experiment(config, seed=9).churn is not None


class InterruptedStore(ResultStore):
    """A store whose npz tier raises after ``fuel`` successful writes —
    simulates a sweep killed after k of N cells completed."""

    def __init__(self, root, fuel):
        super().__init__(root)
        object.__setattr__(self, "_fuel", fuel)

    def store(self, key, result):
        if self._fuel <= 0:
            raise RuntimeError("simulated kill")
        object.__setattr__(self, "_fuel", self._fuel - 1)
        super().store(key, result)


class TestResumeAfterInterrupt:
    def test_exactly_unfinished_cells_recompute(self, tmp_path):
        cells = small_grid()
        k = 2
        killed = SweepRunner(store=InterruptedStore(tmp_path, k), workers=1)
        with pytest.raises(RuntimeError, match="simulated kill"):
            killed.run("figure", cells)

        resumed = SweepRunner(store=tmp_path, workers=1)
        result = resumed.run("figure", cells)
        assert result.computed == len(cells) - k
        assert result.cache_hits == k
        assert [o.source for o in result.outcomes[:k]] == ["store"] * k

        # The resumed figure is byte-identical to an uninterrupted one,
        # for any worker count.
        clean = SweepRunner(store=tmp_path / "clean", workers=2).run(
            "figure", cells
        )
        assert json.dumps(result.values) == json.dumps(clean.values)

    def test_interrupt_then_resume_report_bytes(self, tmp_path):
        from repro.sim.sweeps import rate_sweep

        kwargs = dict(n=40, runs=8, seed=3, max_rounds=100)
        uninterrupted = rate_sweep(
            ["drum", "push"], [0.0, 32.0],
            store=tmp_path / "clean", **kwargs,
        )
        with pytest.raises(RuntimeError):
            rate_sweep(
                ["drum", "push"], [0.0, 32.0],
                store=InterruptedStore(tmp_path / "hurt", 1), **kwargs,
            )
        resumed = rate_sweep(
            ["drum", "push"], [0.0, 32.0],
            store=tmp_path / "hurt", **kwargs,
        )
        assert resumed.to_json() == uninterrupted.to_json()


class TestSweepObservability:
    def test_event_stream_and_counters(self, tmp_path):
        cells = small_grid()
        tracer = Tracer()
        SweepRunner(store=tmp_path, tracer=tracer).run("obs", cells)
        counters = tracer.counters
        assert counters.sweep_cells_computed == len(cells)
        assert counters.sweep_cache_hits == 0
        assert counters.by_type["sweep_start"] == 1
        assert counters.by_type["cell_finish"] == len(cells)

        repeat_tracer = Tracer()
        SweepRunner(store=tmp_path, tracer=repeat_tracer).run("obs", cells)
        assert repeat_tracer.counters.sweep_cells_computed == 0
        assert repeat_tracer.counters.sweep_cache_hits == len(cells)
        text = repeat_tracer.counters.exposition()
        assert 'repro_sweep_cells_total{source="cache"} 4' in text

    def test_events_are_worker_invariant(self, tmp_path):
        from repro.obs import MemorySink

        cells = small_grid()
        streams = []
        for workers in (1, 2):
            sink = MemorySink()
            SweepRunner(
                store=tmp_path / str(workers), workers=workers,
                tracer=Tracer(sink),
            ).run("inv", cells)
            streams.append(json.dumps(sink.events, sort_keys=True))
        assert streams[0] == streams[1]
