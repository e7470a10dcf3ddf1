"""Tests for the parallel execution layer: worker-count invariance,
REPRO_WORKERS validation, and the on-disk result store."""

import numpy as np
import pytest

from repro.adversary import AttackSpec
from repro.sim import (
    ResultStore,
    Scenario,
    default_workers,
    monte_carlo,
)
from repro.sim.fast import FAST_BLOCK
from repro.sim.parallel import (
    FAST_SHARD_RUNS,
    check_workers,
    child_seeds,
    fast_shard_sizes,
    iter_calls,
    make_job,
)
from repro.sweep import budget_grid, extent_grid, rate_grid
from repro.sweep.store import as_store


@pytest.fixture
def dos_scenario():
    return Scenario(
        protocol="drum", n=40, malicious_fraction=0.1,
        attack=AttackSpec(alpha=0.1, x=32),
    )


class TestWorkerPlumbing:
    def test_default_workers_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() == 1
        assert default_workers(3) == 3
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert default_workers() == 4

    @pytest.mark.parametrize("raw", ["bogus", "2.5", ""])
    def test_non_integer_env_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        with pytest.raises(ValueError, match="REPRO_WORKERS must be an integer"):
            default_workers()

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_non_positive_env_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        with pytest.raises(ValueError, match="REPRO_WORKERS must be >= 1"):
            default_workers()

    def test_monte_carlo_reads_env(self, monkeypatch, dos_scenario):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError):
            monte_carlo(dos_scenario, runs=5, seed=1)

    @pytest.mark.parametrize("bad", [0, -1, 2.0, "2", True])
    def test_check_workers_rejects(self, bad):
        with pytest.raises(ValueError):
            check_workers(bad)

    def test_monte_carlo_rejects_bad_workers(self, dos_scenario):
        with pytest.raises(ValueError):
            monte_carlo(dos_scenario, runs=5, seed=1, workers=0)

    def test_sweep_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            rate_grid(["drum"], [0], n=40, runs=5, seed=1).run(workers=-2)

    def test_iter_calls_indexes_every_result(self):
        calls = [(_square, t) for t in range(23)]
        # In-process: in call order.
        assert list(iter_calls(calls, workers=1)) == [
            (t, t * t) for t in range(23)
        ]
        # On the pool: completion order, so place results by index.
        pooled = dict(iter_calls(calls, workers=4))
        assert pooled == {t: t * t for t in range(23)}
        assert list(iter_calls([], workers=4)) == []


def _square(x):
    return x * x


class TestShardLayout:
    def test_layout_depends_on_runs_only(self):
        # Up to 10^5 ids the width never shows in the layout.
        for width in (1, 1000, 100_000):
            assert fast_shard_sizes(1, width) == [1]
            assert fast_shard_sizes(FAST_SHARD_RUNS, width) == [
                FAST_SHARD_RUNS
            ]
            assert fast_shard_sizes(FAST_SHARD_RUNS + 1, width) == [
                FAST_SHARD_RUNS, 1
            ]
            for runs in (1, 7, 63, 64, 65, 100, 1000):
                assert sum(fast_shard_sizes(runs, width)) == runs

    @pytest.mark.parametrize(
        "runs, width, sizes",
        [
            (65, 100_001, [63, 2]),
            (130, 200_000, [32, 32, 32, 32, 2]),
            (3, 10**6, [3]),
            (13, 10**6, [6, 6, 1]),
            (2, 10**7, [1, 1]),
        ],
    )
    def test_wider_groups_get_smaller_shards(self, runs, width, sizes):
        assert fast_shard_sizes(runs, width) == sizes
        for size in sizes:
            assert size == 1 or size * width <= FAST_BLOCK

    def test_churn_joiners_count_in_the_width(self):
        # 100 000 + 10 000 joiners: 6.4e6 // 110 000 = 58 runs a shard.
        scenario = Scenario(n=100_000, faults="join@2:0.1")
        assert make_job(scenario, 65, seed=1)._sizes == [58, 7]

    @pytest.mark.parametrize(
        "fields",
        [
            dict(n=1000),
            dict(n=100_000),
            # A churn plan widens the id universe: 90 000 + 9 000 joiners.
            dict(n=90_000, faults="join@2:0.1"),
        ],
    )
    def test_job_layout_up_to_1e5_ids_is_pinned(self, fields):
        # Every fast seed, pin and store value at up to 10^5 ids rests
        # on this layout: the shard count fixes each shard's seed.
        scenario = Scenario(**fields)
        for runs, sizes in (
            (1, [1]), (64, [64]), (65, [64, 1]), (130, [64, 64, 2]),
        ):
            assert make_job(scenario, runs, seed=1)._sizes == sizes

    def test_invalid_runs_rejected(self):
        with pytest.raises(ValueError):
            fast_shard_sizes(0, 1000)


class TestChildSeeds:
    def test_matches_spawn_for_fresh_roots(self):
        from repro.util import spawn_seeds

        derived = child_seeds(21, 4)
        spawned = spawn_seeds(21, 4)
        for d, s in zip(derived, spawned):
            assert d.entropy == s.entropy
            assert tuple(d.spawn_key) == tuple(s.spawn_key)

    def test_does_not_mutate_caller_sequence(self):
        root = np.random.SeedSequence(5)
        first = child_seeds(root, 3)
        second = child_seeds(root, 3)
        assert root.n_children_spawned == 0
        assert [tuple(s.spawn_key) for s in first] == [
            tuple(s.spawn_key) for s in second
        ]

    def test_shared_seed_sequence_is_order_independent(self, dos_scenario):
        # Regression: SeedSequence.spawn mutates its parent, so a seed
        # shared across sweep points used to make each point's result
        # depend on how many points ran before it — and pool workers
        # (holding pickled copies) diverged from the serial order.
        seq = np.random.SeedSequence(77)
        first = monte_carlo(dos_scenario, runs=100, seed=seq, workers=1)
        again = monte_carlo(dos_scenario, runs=100, seed=seq, workers=1)
        assert np.array_equal(first.counts, again.counts)

    def test_multishard_sweep_byte_identical_across_workers(self):
        # Regression: runs > FAST_SHARD_RUNS forces multi-shard seed
        # derivation inside every sweep cell; with spawn-based (mutating)
        # derivation this diverged between workers=1 and workers=2.
        reports = [
            rate_grid(
                ["drum"], [0, 16], n=40, runs=FAST_SHARD_RUNS + 20, seed=7,
            ).run(workers=w).to_json()
            for w in (1, 2)
        ]
        assert reports[0] == reports[1]


class TestDeterminismAcrossWorkers:
    """Same seed => identical results for workers in {1, 2, 4}."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_fast_engine_bit_identical(self, dos_scenario, workers):
        # runs=100 spans a shard boundary (64 + 36), so this exercises
        # multi-shard seed derivation, not just a trivial single shard.
        base = monte_carlo(dos_scenario, runs=100, seed=5, workers=1)
        other = monte_carlo(dos_scenario, runs=100, seed=5, workers=workers)
        assert np.array_equal(base.counts, other.counts)
        assert np.array_equal(base.counts_attacked, other.counts_attacked)
        assert np.array_equal(
            base.counts_non_attacked, other.counts_non_attacked
        )

    @pytest.mark.parametrize("workers", [2, 4])
    def test_exact_engine_bit_identical(self, dos_scenario, workers):
        base = monte_carlo(
            dos_scenario, runs=10, seed=5, engine="exact", workers=1
        )
        other = monte_carlo(
            dos_scenario, runs=10, seed=5, engine="exact", workers=workers
        )
        assert np.array_equal(base.counts, other.counts)
        assert np.array_equal(base.counts_attacked, other.counts_attacked)

    def test_fast_engine_horizon_bit_identical(self):
        scenario = Scenario(protocol="push", n=40, threshold=1.0)
        base = monte_carlo(scenario, runs=80, seed=3, horizon=20, workers=1)
        other = monte_carlo(scenario, runs=80, seed=3, horizon=20, workers=4)
        assert base.counts.shape[1] == 21
        assert np.array_equal(base.counts, other.counts)

    @pytest.mark.parametrize(
        "sweep,kwargs",
        [
            ("rate_sweep", {"rates": [0, 16]}),
            ("extent_sweep", {"alphas": [0.1, 0.2], "x": 16.0}),
            ("budget_sweep", {"alphas": [0.2, 0.5], "budget_per_process": 2.0}),
        ],
    )
    def test_sweep_reports_byte_identical(self, sweep, kwargs):
        builder = {
            "rate_sweep": rate_grid,
            "extent_sweep": extent_grid,
            "budget_sweep": budget_grid,
        }[sweep]
        grid = builder(["drum", "push"], n=40, runs=15, seed=7, **kwargs)
        assert grid.name == sweep
        reports = [grid.run(workers=w).to_json() for w in (1, 2, 4)]
        assert reports[0] == reports[1] == reports[2]

    def test_exact_matches_historical_serial_aggregation(self, dos_scenario):
        # The exact path derives one child seed per run in the parent —
        # the historical serial behaviour — so a hand-rolled serial
        # aggregation must agree bit-for-bit with the pool.
        from repro.sim import run_exact
        from repro.util import spawn_seeds

        parallel = monte_carlo(
            dos_scenario, runs=6, seed=21, engine="exact", workers=4
        )
        serial_runs = [
            run_exact(dos_scenario, seed=s) for s in spawn_seeds(21, 6)
        ]
        for i, run in enumerate(serial_runs):
            assert np.array_equal(
                parallel.counts[i, : len(run.counts)], run.counts
            )
            # Rows are padded with their final value.
            assert (parallel.counts[i, len(run.counts):] == run.counts[-1]).all()


class TestResultCache:
    def test_hit_returns_identical_result(self, tmp_path, dos_scenario):
        store = ResultStore(tmp_path)
        cold = monte_carlo(dos_scenario, runs=20, seed=9, store=store)
        warm = monte_carlo(dos_scenario, runs=20, seed=9, store=store)
        assert np.array_equal(cold.counts, warm.counts)
        assert np.array_equal(cold.counts_attacked, warm.counts_attacked)

    def test_hit_skips_recomputation(self, tmp_path, monkeypatch, dos_scenario):
        store = ResultStore(tmp_path)
        monte_carlo(dos_scenario, runs=20, seed=9, store=store)

        def explode(*args, **kwargs):
            raise AssertionError("store hit should not recompute")

        monkeypatch.setattr("repro.sim.runner.execute_job", explode)
        warm = monte_carlo(dos_scenario, runs=20, seed=9, store=store)
        assert warm.runs == 20

    def test_hit_cannot_be_written_through(self, tmp_path, dos_scenario):
        # Every hit in a process is the one LRU entry, seeded with the
        # first caller's own result: a write must raise, not poison
        # every later hit.
        first = monte_carlo(dos_scenario, runs=5, seed=3, store=tmp_path)
        with pytest.raises(ValueError):
            first.counts[:] = 0
        again = monte_carlo(dos_scenario, runs=5, seed=3, store=tmp_path)
        fresh = monte_carlo(dos_scenario, runs=5, seed=3)
        assert np.array_equal(again.counts, fresh.counts)
        assert not again.counts_attacked.flags.writeable
        assert not again.counts_non_attacked.flags.writeable

    def test_path_argument_coerced(self, tmp_path, dos_scenario):
        monte_carlo(dos_scenario, runs=10, seed=2, store=str(tmp_path))
        assert list(tmp_path.glob("*.npz"))

    def test_bad_cache_argument_rejected(self, dos_scenario):
        with pytest.raises(TypeError):
            monte_carlo(dos_scenario, runs=5, seed=1, store=42)

    def test_key_separates_experiments(self, tmp_path, dos_scenario):
        store = ResultStore(tmp_path)
        other_scenario = dos_scenario.with_(n=50)
        keys = {
            store.key(dos_scenario, 20, seed=9),
            store.key(dos_scenario, 21, seed=9),
            store.key(dos_scenario, 20, seed=10),
            store.key(dos_scenario, 20, seed=9, engine="exact"),
            store.key(dos_scenario, 20, seed=9, horizon=30),
            store.key(other_scenario, 20, seed=9),
        }
        assert len(keys) == 6

    def test_unseeded_experiments_never_cached(self, tmp_path, dos_scenario):
        store = ResultStore(tmp_path)
        monte_carlo(dos_scenario, runs=5, store=store)  # seed=None
        rng = np.random.default_rng(1)
        monte_carlo(dos_scenario, runs=5, seed=rng, store=store)
        assert not list(tmp_path.glob("*.npz"))

    def test_seed_sequence_keys_are_stable(self, tmp_path, dos_scenario):
        store = ResultStore(tmp_path)
        seq = np.random.SeedSequence(42, spawn_key=(1,))
        same = np.random.SeedSequence(42, spawn_key=(1,))
        other = np.random.SeedSequence(42, spawn_key=(2,))
        assert store.key(dos_scenario, 20, seed=seq) == store.key(
            dos_scenario, 20, seed=same
        )
        assert store.key(dos_scenario, 20, seed=seq) != store.key(
            dos_scenario, 20, seed=other
        )

    def test_corrupted_entry_recomputes(self, tmp_path, dos_scenario):
        store = ResultStore(tmp_path)
        cold = monte_carlo(dos_scenario, runs=20, seed=9, store=store)
        key = store.key(dos_scenario, 20, seed=9)
        store.path_for(key).write_bytes(b"this is not an npz archive")
        recomputed = monte_carlo(dos_scenario, runs=20, seed=9, store=store)
        assert np.array_equal(cold.counts, recomputed.counts)

    def test_truncated_entry_recomputes(self, tmp_path, dos_scenario):
        store = ResultStore(tmp_path)
        cold = monte_carlo(dos_scenario, runs=20, seed=9, store=store)
        key = store.key(dos_scenario, 20, seed=9)
        path = store.path_for(key)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        recomputed = monte_carlo(dos_scenario, runs=20, seed=9, store=store)
        assert np.array_equal(cold.counts, recomputed.counts)

    def test_wrong_shape_entry_recomputes(self, tmp_path, dos_scenario):
        store = ResultStore(tmp_path)
        key = store.key(dos_scenario, 20, seed=9)
        np.savez_compressed(
            store.path_for(key),
            counts=np.ones(5),  # 1-D: not a trajectory matrix
            counts_attacked=np.ones(5),
            counts_non_attacked=np.ones(5),
        )
        result = monte_carlo(dos_scenario, runs=20, seed=9, store=store)
        assert result.counts.ndim == 2 and result.runs == 20

    def test_load_missing_is_none(self, tmp_path, dos_scenario):
        store = ResultStore(tmp_path)
        assert store.load("0" * 64, dos_scenario) is None

    def test_as_cache(self, tmp_path):
        assert as_store(None) is None
        store = ResultStore(tmp_path)
        assert as_store(store) is store
        assert as_store(str(tmp_path)).root == tmp_path

    def test_sweep_shares_points_through_cache(self, tmp_path):
        store = ResultStore(tmp_path)
        grid = rate_grid(["drum"], [0, 16], n=40, runs=15, seed=7)
        first = grid.run(store=store)
        entries = sorted(p.name for p in tmp_path.glob("*.npz"))
        assert len(entries) == 2
        again = grid.run(store=store)
        assert sorted(p.name for p in tmp_path.glob("*.npz")) == entries
        assert first.to_json() == again.to_json()

    def test_cached_sweep_identical_across_workers(self, tmp_path):
        grid = rate_grid(["drum"], [0, 16], n=40, runs=15, seed=7)
        cold = grid.run(store=ResultStore(tmp_path), workers=2)
        warm = grid.run(store=ResultStore(tmp_path), workers=1)
        assert cold.to_json() == warm.to_json()


class TestKeyStability:
    """Regression tests for the v2 repr-fallback key bug: keys must be
    a pure function of experiment content, stable across processes."""

    def test_numpy_scalar_inputs_key_like_python(self, tmp_path):
        store = ResultStore(tmp_path)
        plain = Scenario(
            protocol="drum", n=40, malicious_fraction=0.1,
            attack=AttackSpec(alpha=0.2, x=64.0),
        )
        numpied = Scenario(
            protocol="drum", n=int(np.int64(40)),
            malicious_fraction=float(np.float64(0.1)),
            attack=AttackSpec(
                alpha=np.float64(0.2), x=np.float32(64.0)
            ),
        )
        assert store.key(plain, 20, seed=9) == store.key(numpied, 20, seed=9)

    def test_key_stable_in_fresh_subprocess(self, tmp_path, dos_scenario):
        import os
        import subprocess
        import sys
        from pathlib import Path

        snippet = (
            "from repro.adversary import AttackSpec\n"
            "from repro.sim import ResultStore, Scenario\n"
            "scenario = Scenario(\n"
            "    protocol='drum', n=40, malicious_fraction=0.1,\n"
            "    attack=AttackSpec(alpha=0.25, x=64.0), max_rounds=200,\n"
            "    faults='crash@5:0.1;partition@8-15:0.4',\n"
            ")\n"
            "print(ResultStore('unused').key(scenario, 50, seed=9))\n"
        )
        src = Path(__file__).parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        scenario = Scenario(
            protocol="drum", n=40, malicious_fraction=0.1,
            attack=AttackSpec(alpha=0.25, x=64.0), max_rounds=200,
            faults="crash@5:0.1;partition@8-15:0.4",
        )
        here = ResultStore("unused").key(scenario, 50, seed=9)
        assert proc.stdout.strip() == here
        # A literal pin: the key must not move when the store code does.
        pinned = Scenario(
            protocol="drum", n=40, malicious_fraction=0.1,
            attack=AttackSpec(alpha=0.2, x=64.0), max_rounds=100,
            faults="crash@5:0.1;partition@8-15:0.4",
        )
        assert ResultStore("unused").key(
            pinned, 50, seed=9, engine="fast"
        ) == "cd05eaf5bb0de581fedfdadab746f8996a57be1846c88839fa6fb2c648ab0267"

    def test_uncanonicalisable_scenario_is_uncacheable(self, tmp_path):
        store = ResultStore(tmp_path)
        scenario = Scenario(protocol="drum", n=40)
        sneaky = scenario.with_(n=40)
        object.__setattr__(sneaky, "n", object())  # resists encoding
        assert store.key(scenario, 10, seed=1) is not None
        assert store.key(sneaky, 10, seed=1) is None


class TestPoisonedEntries:
    def test_float_dtype_counts_recompute(self, tmp_path, dos_scenario):
        # A poisoned entry with float counts must be rejected, not
        # silently returned as a count matrix.
        store = ResultStore(tmp_path)
        cold = monte_carlo(dos_scenario, runs=20, seed=9, store=store)
        key = store.key(dos_scenario, 20, seed=9)
        np.savez_compressed(
            store.path_for(key),
            counts=np.asarray(cold.counts, dtype=np.float64),
            counts_attacked=cold.counts_attacked,
            counts_non_attacked=cold.counts_non_attacked,
        )
        assert store.load(key, dos_scenario) is None
        recomputed = monte_carlo(dos_scenario, runs=20, seed=9, store=store)
        assert recomputed.counts.dtype.kind in "iu"
        assert np.array_equal(cold.counts, recomputed.counts)

    def test_bad_reachable_holders_recompute(self, tmp_path):
        scenario = Scenario(
            protocol="drum", n=40, faults="crash@3:0.2", max_rounds=100
        )
        store = ResultStore(tmp_path)
        cold = monte_carlo(scenario, runs=10, seed=4, store=store)
        key = store.key(scenario, 10, seed=4)
        with np.load(store.path_for(key)) as entry:
            arrays = dict(entry)
        arrays["reachable_holders"] = arrays["reachable_holders"].astype(
            np.float64
        )
        np.savez_compressed(store.path_for(key), **arrays)
        assert store.load(key, scenario) is None
        recomputed = monte_carlo(scenario, runs=10, seed=4, store=store)
        assert np.array_equal(cold.counts, recomputed.counts)
