"""The packed mega engine: primitives, determinism contract, wiring.

Three layers of pinning:

1. the bitset primitives against plain-numpy references;
2. the engine's determinism contract — seeded results are
   byte-identical for **any** shard size and worker count, because
   randomness is drawn per fixed 4096-node block, never per shard;
3. the integration surface — ``monte_carlo(engine="mega")``,
   ``Experiment.run(engine="mega")``, the ``"mega"`` result envelope,
   npz-cache round-trips, and numpy-integer coercion in scenarios and
   sweep grids.
"""

import numpy as np
import pytest

from repro.adversary.attacks import AttackSpec
from repro.api import Experiment, decode_envelope, encode_envelope
from repro.obs import MemorySink, Tracer
from repro.sim.mega import (
    DEFAULT_SHARD_NODES,
    MEGA_BLOCK_NODES,
    MegaResult,
    bit_get,
    bit_or_block,
    mask_to_packed,
    packed_size,
    popcount,
    popcount_prefix,
    run_mega,
)
from repro.sim.runner import monte_carlo
from repro.sim.scenario import Scenario
from repro.sweep import Cell, ResultStore, scale_grid
from repro.util import coerce_int


# ---------------------------------------------------------------------------
# packed-bitset primitives
# ---------------------------------------------------------------------------

def _reference_bits(packed: np.ndarray, n: int) -> np.ndarray:
    return np.unpackbits(packed, bitorder="little")[:n]


def test_packed_size_rounds_up_to_bytes():
    assert packed_size(1) == 1
    assert packed_size(8) == 1
    assert packed_size(9) == 2
    assert packed_size(4096) == 512


def test_bit_get_matches_unpacked_reference(rng):
    n = 1000
    bits = rng.integers(0, 2, size=n, dtype=np.uint8)
    packed = np.packbits(bits, bitorder="little")
    idx = rng.integers(0, n, size=500)
    assert np.array_equal(bit_get(packed, idx), bits[idx])


def test_bit_or_block_is_byte_aligned_or(rng):
    n = 4096 + 123
    packed = np.zeros(packed_size(n), dtype=np.uint8)
    first = rng.integers(0, 2, size=MEGA_BLOCK_NODES, dtype=np.uint8)
    bit_or_block(packed, 0, first)
    tail = rng.integers(0, 2, size=123, dtype=np.uint8)
    bit_or_block(packed, MEGA_BLOCK_NODES, tail)
    expect = np.concatenate([first, tail])
    assert np.array_equal(_reference_bits(packed, n), expect)
    # OR-ing again is idempotent.
    bit_or_block(packed, 0, first)
    assert np.array_equal(_reference_bits(packed, n), expect)


def test_popcount_and_prefix(rng):
    n = 10_000
    bits = rng.integers(0, 2, size=n, dtype=np.uint8)
    packed = np.packbits(bits, bitorder="little")
    assert popcount(packed) == int(bits.sum())
    for k in (0, 1, 7, 8, 9, 4096, n):
        assert popcount_prefix(packed, k) == int(bits[:k].sum())


def test_mask_to_packed_round_trips(rng):
    n = 5000
    ids = rng.choice(n, size=700, replace=False)
    packed = mask_to_packed(n, ids)
    bits = _reference_bits(packed, n)
    assert popcount(packed) == 700
    assert np.array_equal(np.flatnonzero(bits), np.sort(ids))


# ---------------------------------------------------------------------------
# determinism contract
# ---------------------------------------------------------------------------

def _attacked_scenario(n, protocol="drum"):
    return Scenario(
        protocol=protocol,
        n=n,
        malicious_fraction=0.1,
        attack=AttackSpec(alpha=0.1, x=64.0),
        max_rounds=200,
    )


def _fingerprint(result):
    return (
        result.counts.tobytes(),
        result.counts_attacked.tobytes(),
        result.counts_non_attacked.tobytes(),
        result.shard_nodes,
        result.blocks,
    )


def test_mega_byte_invariant_across_shards_and_workers():
    """The tentpole guarantee at n = 10⁴: the worker count is a pure
    execution knob — per-block seed derivation makes every fan-out
    produce the same bytes."""
    scenario = _attacked_scenario(10_000)
    baseline = run_mega(scenario, 3, seed=99)
    again = run_mega(scenario, 3, seed=99, workers=2)
    assert _fingerprint(again) == _fingerprint(baseline)
    assert again.mega_meta().tolist() == baseline.mega_meta().tolist()
    assert again.shard_nodes == DEFAULT_SHARD_NODES


def test_mega_shard_nodes_rounds_up_to_block_multiple():
    # The recorded layout label is a constant: it names no work.
    result = run_mega(_attacked_scenario(10_000), 1, seed=1)
    assert result.shard_nodes == DEFAULT_SHARD_NODES
    assert result.shard_nodes % MEGA_BLOCK_NODES == 0
    assert result.to_dict()["data"]["mega"]["shard_nodes"] == (
        DEFAULT_SHARD_NODES
    )


def test_mega_seed_determinism_and_sensitivity():
    scenario = _attacked_scenario(1000)
    a = run_mega(scenario, 2, seed=5)
    b = run_mega(scenario, 2, seed=5)
    c = run_mega(scenario, 2, seed=6)
    assert _fingerprint(a) == _fingerprint(b)
    assert a.counts.tobytes() != c.counts.tobytes()


def test_mega_tracer_does_not_perturb_results():
    scenario = _attacked_scenario(1000)
    plain = run_mega(scenario, 2, seed=7)
    sink = MemorySink()
    traced = run_mega(scenario, 2, seed=7, tracer=Tracer(sink))
    assert _fingerprint(traced) == _fingerprint(plain)
    kinds = {event["ev"] for event in sink.events}
    assert {"run_start", "round_start", "delivered", "run_end"} <= kinds


def test_mega_runs_all_protocol_variants():
    for protocol in (
        "drum",
        "push",
        "pull",
        "drum-no-random-ports",
        "drum-shared-bounds",
    ):
        result = run_mega(_attacked_scenario(500, protocol), 2, seed=11)
        assert isinstance(result, MegaResult)
        assert result.runs == 2
        assert result.counts[0, 0] == 1  # source starts infected
        assert np.all(np.diff(result.counts, axis=1) >= 0)


def test_mega_peak_state_bytes_stays_linear_and_small():
    scenario = _attacked_scenario(20_000)
    result = run_mega(scenario, 1, seed=3)
    assert result.peak_state_bytes > 0
    # The packed layout holds well under 64 bytes of engine state per
    # node (bitmaps are 1/8 byte; the sender stash dominates at ~v·8):
    # that linear coefficient is what keeps the n = 10⁶ spot run's
    # state (tests/test_mega_equivalence.py) a few tens of MB.
    assert result.peak_state_bytes < 64 * scenario.n


# ---------------------------------------------------------------------------
# wiring: runner / api / envelope / cache / sweep
# ---------------------------------------------------------------------------

def test_monte_carlo_engine_mega():
    result = monte_carlo(_attacked_scenario(500), 2, seed=21, engine="mega")
    assert isinstance(result, MegaResult)
    direct = run_mega(_attacked_scenario(500), 2, seed=21)
    assert result.counts.tobytes() == direct.counts.tobytes()


def test_experiment_engine_mega():
    experiment = Experiment(
        protocol="drum",
        n=500,
        malicious_fraction=0.1,
        attack=AttackSpec(alpha=0.1, x=32.0),
        max_rounds=200,
        runs=2,
    )
    result = experiment.run(engine="mega", seed=31)
    assert isinstance(result, MegaResult)
    assert result.runs == 2


def test_mega_envelope_round_trip():
    result = run_mega(_attacked_scenario(500), 2, seed=41)
    envelope = result.to_dict()
    assert envelope["kind"] == "mega"
    rebuilt = decode_envelope(encode_envelope(result))
    assert isinstance(rebuilt, MegaResult)
    assert np.array_equal(rebuilt.counts, result.counts)
    assert rebuilt.shard_nodes == result.shard_nodes
    assert rebuilt.blocks == result.blocks
    assert rebuilt.peak_state_bytes == result.peak_state_bytes
    assert encode_envelope(rebuilt) == encode_envelope(result)


def test_mega_result_cache_round_trip(tmp_path):
    store = ResultStore(tmp_path / "store")
    scenario = _attacked_scenario(500)
    result = run_mega(scenario, 2, seed=51)
    key = store.key(scenario, 2, seed=51, engine="mega")
    assert key is not None
    store.store(key, result)
    loaded = store.load(key, scenario)
    assert isinstance(loaded, MegaResult)
    assert np.array_equal(loaded.counts, result.counts)
    assert loaded.mega_meta().tolist() == result.mega_meta().tolist()


def test_cached_monte_carlo_mega_hits(tmp_path):
    store = ResultStore(tmp_path / "store")
    scenario = _attacked_scenario(500)
    first = monte_carlo(scenario, 2, seed=61, engine="mega", store=store)
    second = monte_carlo(scenario, 2, seed=61, engine="mega", store=store)
    assert isinstance(second, MegaResult)
    assert second.counts.tobytes() == first.counts.tobytes()


# ---------------------------------------------------------------------------
# satellites: integer coercion, scale grid
# ---------------------------------------------------------------------------

def test_coerce_int_accepts_integer_like_values():
    assert coerce_int("n", 7) == 7
    assert coerce_int("n", np.int64(7)) == 7
    assert coerce_int("n", np.float64(7.0)) == 7
    assert isinstance(coerce_int("n", np.int64(7)), int)
    with pytest.raises(ValueError, match="integer"):
        coerce_int("n", 7.5)
    with pytest.raises(ValueError, match="integer"):
        coerce_int("n", True)


def test_scenario_coerces_numpy_n():
    scenario = Scenario(protocol="drum", n=np.int64(100))
    assert type(scenario.n) is int
    assert scenario.n == 100


def test_scale_grid_accepts_logspace_ns():
    ns = np.logspace(3, 5, num=3)  # float64 values 10³, 10⁴, 10⁵
    grid = scale_grid(["drum", "pull"], ns, runs=2, seed=123)
    assert grid.name == "scale_sweep"
    assert grid.x_values == (1e3, 1e4, 1e5)
    assert len(grid.rows) == 2 and all(len(row) == 3 for row in grid.rows)
    for row in grid.rows:
        for cell in row:
            assert cell.engine == "mega"
            assert type(cell.scenario.n) is int
            # Single-victim targeted attack: α = 1/n, budget ∝ n.
            attack = cell.scenario.attack
            assert attack.victim_count(cell.scenario.n) == 1
            assert attack.x == pytest.approx(8.0 * cell.scenario.n)


def test_cell_accepts_mega_engine_and_rejects_unknown():
    scenario = _attacked_scenario(500)
    cell = Cell(series="drum", x=500.0, scenario=scenario, engine="mega")
    assert cell.kind == "monte_carlo"
    with pytest.raises(ValueError, match="unknown engine"):
        Cell(series="drum", x=500.0, scenario=scenario, engine="warp")
