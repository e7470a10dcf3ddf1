"""Tests for the persistent executor: start-method policy, pool death
recovery and cancellation, shared-memory segments, result accounting,
and — via seeded fault-injecting stand-in pools — byte-identity of
results and sweeps under arbitrary task delay, reordering, and
mid-sweep kills.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.adversary import AttackSpec
from repro.sim import Scenario, monte_carlo
from repro.sim.executor import (
    MAX_TASK_ATTEMPTS,
    SharedArrays,
    WorkerPool,
    close_pool,
    mp_context,
    pool_override,
    start_method,
    stats,
    try_shared,
)
from repro.sweep import store as store_module
from repro.sweep.orchestrator import SweepRunner
from repro.sweep.store import ResultStore, _npz_lru_clear


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Each test starts and ends without a live process-wide pool."""
    close_pool()
    stats().reset()
    yield
    close_pool()


@pytest.fixture
def dos_scenario():
    return Scenario(
        protocol="drum", n=40, malicious_fraction=0.1,
        attack=AttackSpec(alpha=0.1, x=32),
    )


def _square(x):
    return x * x


def _kill_worker_once(flag_path):
    """Dies with its worker on first execution, succeeds on retry."""
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as handle:
            handle.write("died")
        os.kill(os.getpid(), signal.SIGKILL)
    return "survived"


# ---------------------------------------------------------------------------
# start-method policy
# ---------------------------------------------------------------------------


class TestStartMethod:
    def test_env_override_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        assert start_method() == "spawn"
        assert mp_context().get_start_method() == "spawn"

    def test_bogus_env_rejected_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "bogus")
        with pytest.raises(ValueError, match="REPRO_START_METHOD must be"):
            start_method()

    def test_default_is_fork_without_threads(self, monkeypatch):
        monkeypatch.delenv("REPRO_START_METHOD", raising=False)
        assert start_method() == "fork"

    def test_refuses_implicit_fork_with_nondaemon_threads(self, monkeypatch):
        monkeypatch.delenv("REPRO_START_METHOD", raising=False)
        release = threading.Event()
        thread = threading.Thread(
            target=release.wait, name="live-node-7", daemon=False
        )
        thread.start()
        try:
            with pytest.raises(RuntimeError, match="live-node-7"):
                start_method()
            with pytest.raises(RuntimeError, match="REPRO_START_METHOD"):
                start_method()
            # An explicit choice overrides the refusal either way.
            monkeypatch.setenv("REPRO_START_METHOD", "spawn")
            assert start_method() == "spawn"
            monkeypatch.setenv("REPRO_START_METHOD", "fork")
            assert start_method() == "fork"
        finally:
            release.set()
            thread.join()


# ---------------------------------------------------------------------------
# shared-memory result segments
# ---------------------------------------------------------------------------


class TestSharedArrays:
    SPEC = [
        ("counts", (3, 5), np.int32),
        ("holders", (3,), np.int32),
        ("wide", (2, 2), np.int64),
    ]

    def test_round_trip_through_descriptor(self):
        shared = SharedArrays(self.SPEC)
        try:
            parent = shared.arrays()
            parent["counts"][:] = np.arange(15, dtype=np.int32).reshape(3, 5)
            parent["holders"][:] = [7, 8, 9]
            parent["wide"][:] = np.int64(2**40)
            parent = None

            shm, views = SharedArrays.attach(shared.descriptor)
            got = {name: np.array(view) for name, view in views.items()}
            views = None
            shm.close()

            np.testing.assert_array_equal(
                got["counts"], np.arange(15, dtype=np.int32).reshape(3, 5)
            )
            np.testing.assert_array_equal(got["holders"], [7, 8, 9])
            assert got["wide"].dtype == np.int64
            assert int(got["wide"][0, 0]) == 2**40
        finally:
            shared.destroy()

    def test_destroy_is_idempotent(self):
        shared = SharedArrays(self.SPEC)
        shared.destroy()
        shared.destroy()

    def test_stats_count_segment_bytes(self):
        stats().reset()
        shared = SharedArrays([("a", (10, 10), np.int32)])
        try:
            assert stats().shm_bytes >= 400
        finally:
            shared.destroy()

    def test_try_shared_swallows_failure(self, monkeypatch):
        monkeypatch.setattr(
            "repro.sim.executor.SharedArrays",
            lambda spec: (_ for _ in ()).throw(OSError("no shm")),
        )
        assert try_shared([("a", (2,), np.int32)]) is None


# ---------------------------------------------------------------------------
# pool lifecycle and death recovery
# ---------------------------------------------------------------------------


class TestWorkerPool:
    def test_run_calls_in_submission_order(self):
        pool = WorkerPool(2)
        try:
            out = pool.run_calls([(_square, i) for i in range(17)])
            assert out == [i * i for i in range(17)]
        finally:
            pool.close()

    def test_single_spawn_across_batches(self):
        pool = WorkerPool(2)
        try:
            stats().reset()
            pool.run_calls([(_square, i) for i in range(4)])
            pool.run_calls([(_square, i) for i in range(4)])
            pool.run_calls([(_square, i) for i in range(4)])
            assert stats().pool_spawns == 1
            assert stats().respawns == 0
            assert stats().tasks_scheduled == 12
            assert stats().tasks_completed == 12
        finally:
            pool.close()

    def test_task_surviving_worker_death(self, tmp_path):
        flag = tmp_path / "died-once"
        pool = WorkerPool(1)
        try:
            stats().reset()
            out = pool.run_calls([(_kill_worker_once, str(flag))])
            assert out == ["survived"]
            assert flag.exists()
            assert stats().respawns >= 1
        finally:
            pool.close()

    def test_repeated_death_propagates(self, tmp_path):
        # A task that kills its worker on every attempt must surface
        # after MAX_TASK_ATTEMPTS rather than loop forever.
        assert MAX_TASK_ATTEMPTS < 10
        pool = WorkerPool(1)
        try:
            with pytest.raises(Exception):
                pool.run_calls([(_kill_worker_once, "/nonexistent/dir/flag")])
        finally:
            pool.close()

    def test_worker_exception_propagates_pool_stays_healthy(self):
        pool = WorkerPool(1)
        try:
            with pytest.raises(ZeroDivisionError):
                pool.run_calls([(_raise_zero_div, 0)])
            assert pool.run_calls([(_square, 3)]) == [9]
        finally:
            pool.close()

    @pytest.mark.parametrize("stop", ["task_raises", "consumer_stops"])
    def test_early_exit_cancels_queued_tasks(self, tmp_path, stop):
        # One quick task ahead of 20 slow ones; the iteration ends at
        # the quick one.  Only tasks the executor already handed to a
        # worker (workers) or to its call queue (workers + 1) may still
        # run; the rest must be cancelled, not run ahead of the next
        # call.
        workers = 2
        first = _raise_zero_div if stop == "task_raises" else _square
        calls = [(first, 0)] + [
            (_sleep_then_mark, str(tmp_path / f"{i}")) for i in range(20)
        ]
        pool = WorkerPool(workers)
        try:
            results = pool.imap_calls(calls)
            if stop == "task_raises":
                with pytest.raises(ZeroDivisionError):
                    next(results)
            else:
                assert next(results) == (0, 0)
                results.close()
            assert pool.run_calls([(_square, 3)]) == [9]
        finally:
            pool.close()  # waits for every task that did start
        assert len(list(tmp_path.iterdir())) <= workers + (workers + 1)


def _raise_zero_div(x):
    return 1 // x


def _sleep_then_mark(path):
    time.sleep(0.2)
    with open(path, "w"):
        pass


# ---------------------------------------------------------------------------
# the one result path on the real pool
# ---------------------------------------------------------------------------


class TestZeroCopyPath:
    def test_shm_result_path_pickles_no_arrays(self, dos_scenario):
        # The id predates the single result path: shard arrays now come
        # back through pickles, and no job allocates a shared segment.
        stats().reset()
        parallel = monte_carlo(dos_scenario, runs=200, seed=11, workers=2)
        serial = monte_carlo(dos_scenario, runs=200, seed=11, workers=1)
        for name in ("counts", "counts_attacked", "counts_non_attacked"):
            np.testing.assert_array_equal(
                getattr(parallel, name), getattr(serial, name)
            )
        snap = stats().snapshot()
        assert snap["pool_spawns"] == 1
        assert snap["shm_bytes"] == 0
        assert snap["result_array_bytes"] > 0
        assert snap["tasks_completed"] >= 2

    def test_pool_reused_across_monte_carlo_calls(self, dos_scenario):
        stats().reset()
        monte_carlo(dos_scenario, runs=130, seed=1, workers=2)
        monte_carlo(dos_scenario, runs=130, seed=2, workers=2)
        monte_carlo(dos_scenario, runs=130, seed=3, workers=2)
        assert stats().pool_spawns == 1

        # Two whole sweeps on a fresh pool: still one spawn.
        from repro.sweep.grid import rate_grid

        close_pool()
        stats().reset()
        for seed in (1, 2):
            _, rows = rate_grid(
                ["drum", "push"], [0, 32], n=40, alpha=0.1, runs=12,
                seed=seed, max_rounds=120,
            )
            cells = [cell for row in rows for cell in row]
            SweepRunner(workers=2).run("sweep", cells)
        assert stats().pool_spawns == 1


# ---------------------------------------------------------------------------
# fault-injecting stand-in pools
# ---------------------------------------------------------------------------


class ShufflePool:
    """In-process pool that randomly delays and reorders completion.

    Tasks execute in a seeded-shuffled order and their results are
    *released* in a second, independently shuffled order — the most
    hostile completion pattern positional assembly must survive.
    """

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def imap_calls(self, calls):
        calls = list(calls)
        results = {}
        for i in self.rng.permutation(len(calls)):
            fn, payload = calls[int(i)]
            results[int(i)] = fn(payload)
        for i in self.rng.permutation(len(calls)):
            yield int(i), results[int(i)]

    def run_calls(self, calls):
        out = [None] * len(calls)
        for i, result in self.imap_calls(calls):
            out[i] = result
        return out


class DyingPool(ShufflePool):
    """ShufflePool that simulates a fatal worker kill mid-queue: after
    ``fuel`` completions have been released, the next release raises."""

    def __init__(self, seed, fuel):
        super().__init__(seed)
        self.fuel = fuel

    def imap_calls(self, calls):
        for i, result in super().imap_calls(calls):
            if self.fuel <= 0:
                raise RuntimeError("simulated mid-sweep worker kill")
            self.fuel -= 1
            yield i, result


class TestFaultInjectedByteIdentity:
    @pytest.mark.parametrize("seed", [0, 7, 99])
    def test_monte_carlo_identical_under_reordering(self, dos_scenario, seed):
        serial = monte_carlo(dos_scenario, runs=260, seed=42, workers=1)
        with pool_override(ShufflePool(seed)):
            shuffled = monte_carlo(dos_scenario, runs=260, seed=42, workers=4)
        np.testing.assert_array_equal(shuffled.counts, serial.counts)
        np.testing.assert_array_equal(
            shuffled.counts_attacked, serial.counts_attacked
        )
        np.testing.assert_array_equal(
            shuffled.counts_non_attacked, serial.counts_non_attacked
        )
        np.testing.assert_array_equal(
            shuffled.reachable_holders, serial.reachable_holders
        )

    @pytest.mark.parametrize("seed", [3, 21])
    def test_sweep_json_identical_under_reordering(self, seed):
        from repro.sim import rate_sweep

        kwargs = dict(n=40, alpha=0.1, runs=12, seed=9, max_rounds=120)
        baseline = rate_sweep(
            ["drum", "push"], [0, 32, 64], workers=1, **kwargs
        ).to_json()
        with pool_override(ShufflePool(seed)):
            shuffled = rate_sweep(
                ["drum", "push"], [0, 32, 64], workers=4, **kwargs
            ).to_json()
        assert shuffled == baseline

    def test_mid_sweep_kill_then_resume_through_manifest(self, tmp_path):
        from repro.sweep.grid import rate_grid

        def grid():
            report, rows = rate_grid(
                ["drum", "push"],
                [0, 16, 32, 48, 64, 80],
                n=40, alpha=0.1, runs=10, seed=17, max_rounds=120,
            )
            return report, [cell for row in rows for cell in row]

        # The reference figure: fresh serial sweep, no store.
        report, cells = grid()
        reference = SweepRunner(workers=1).run("fig", cells)
        # Interrupted parallel sweep: the pool dies after 9 of 12 cells.
        # At workers=2 the manifest checkpoints every 8 completions, so
        # the kill lands *between* checkpoints.
        store = ResultStore(tmp_path / "store")
        report2, cells2 = grid()
        with pool_override(DyingPool(5, fuel=9)):
            with pytest.raises(RuntimeError, match="worker kill"):
                SweepRunner(store, workers=2).run("fig", cells2)
        manifest = store.load_manifest("fig")
        done_in_manifest = [
            entry["index"]
            for entry in manifest["cells"]
            if entry["status"] == "done"
        ]
        assert len(done_in_manifest) == 8  # one checkpoint fired
        # Resume: manifest serves its 8, the store serves the 1 computed
        # after the last checkpoint, the engine runs only the final 3.
        report3, cells3 = grid()
        resumed = SweepRunner(store, workers=1).run("fig", cells3)
        sources = [outcome.source for outcome in resumed.outcomes]
        assert sources.count("manifest") == 8
        assert sources.count("store") == 1
        assert sources.count("engine") == 3
        assert resumed.values == reference.values

    def test_override_scoped_and_restored(self):
        from repro.sim.executor import get_pool

        inner = ShufflePool(0)
        with pool_override(inner):
            assert get_pool(4) is inner
        assert get_pool(1) is not inner


# ---------------------------------------------------------------------------
# ResultStore npz LRU + stat-signature invalidation
# ---------------------------------------------------------------------------


class TestResultCacheLRU:
    def _decode_counter(self, monkeypatch):
        calls = {"n": 0}
        original = store_module._decode_npz

        def counting(path, scenario):
            calls["n"] += 1
            return original(path, scenario)

        monkeypatch.setattr(store_module, "_decode_npz", counting)
        return calls

    def test_repeat_loads_decode_once(
        self, tmp_path, dos_scenario, monkeypatch
    ):
        store = ResultStore(tmp_path)
        result = monte_carlo(dos_scenario, runs=10, seed=3)
        key = store.key(dos_scenario, 10, seed=3, engine="fast", horizon=None)
        store.store(key, result)
        calls = self._decode_counter(monkeypatch)
        _npz_lru_clear()

        first = store.load(key, dos_scenario)
        assert first is not None
        assert calls["n"] == 1
        for _ in range(5):
            again = store.load(key, dos_scenario)
            np.testing.assert_array_equal(again.counts, first.counts)
        assert calls["n"] == 1  # every repeat served from the LRU

    def test_store_seeds_lru(self, tmp_path, dos_scenario, monkeypatch):
        store = ResultStore(tmp_path)
        result = monte_carlo(dos_scenario, runs=10, seed=4)
        key = store.key(dos_scenario, 10, seed=4, engine="fast", horizon=None)
        calls = self._decode_counter(monkeypatch)
        _npz_lru_clear()
        store.store(key, result)
        assert store.load(key, dos_scenario) is not None
        assert calls["n"] == 0  # the write primed the LRU

    def test_file_change_invalidates_lru(
        self, tmp_path, dos_scenario, monkeypatch
    ):
        store = ResultStore(tmp_path)
        result = monte_carlo(dos_scenario, runs=10, seed=5)
        key = store.key(dos_scenario, 10, seed=5, engine="fast", horizon=None)
        store.store(key, result)
        _npz_lru_clear()
        assert store.load(key, dos_scenario) is not None

        # Poison the on-disk entry; the cached decode must NOT mask it.
        path = store.path_for(key)
        path.write_bytes(b"not an npz file at all")
        loaded, status = store.load_ex(key, dos_scenario)
        assert loaded is None
        assert status == "corrupt"

    def test_deleted_file_is_a_miss_despite_lru(
        self, tmp_path, dos_scenario
    ):
        store = ResultStore(tmp_path)
        result = monte_carlo(dos_scenario, runs=10, seed=6)
        key = store.key(dos_scenario, 10, seed=6, engine="fast", horizon=None)
        store.store(key, result)
        assert store.load(key, dos_scenario) is not None
        store.path_for(key).unlink()
        loaded, status = store.load_ex(key, dos_scenario)
        assert loaded is None
        assert status == "miss"
