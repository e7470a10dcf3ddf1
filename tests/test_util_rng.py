"""Tests for repro.util.rng."""

import numpy as np
import pytest

from repro.util import SeedSequenceFactory, derive_rng, spawn_seeds


class TestDeriveRng:
    def test_none_gives_generator(self):
        assert isinstance(derive_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = derive_rng(7).integers(0, 1 << 30, size=5)
        b = derive_rng(7).integers(0, 1 << 30, size=5)
        assert (a == b).all()

    def test_different_seeds_differ(self):
        a = derive_rng(1).integers(0, 1 << 30, size=8)
        b = derive_rng(2).integers(0, 1 << 30, size=8)
        assert (a != b).any()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert derive_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(42)
        a = derive_rng(seq).integers(0, 1 << 30)
        b = derive_rng(np.random.SeedSequence(42)).integers(0, 1 << 30)
        assert a == b


class TestSpawnSeeds:
    def test_count(self):
        assert len(spawn_seeds(0, 10)) == 10

    def test_children_are_independent(self):
        seeds = spawn_seeds(0, 3)
        draws = [np.random.default_rng(s).integers(0, 1 << 30) for s in seeds]
        assert len(set(draws)) == 3

    def test_reproducible(self):
        a = [np.random.default_rng(s).integers(0, 1 << 20) for s in spawn_seeds(9, 4)]
        b = [np.random.default_rng(s).integers(0, 1 << 20) for s in spawn_seeds(9, 4)]
        assert a == b

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)

    def test_zero_count(self):
        assert spawn_seeds(0, 0) == []


class TestSeedSequenceFactory:
    def test_successive_seeds_differ(self):
        factory = SeedSequenceFactory(3)
        a = np.random.default_rng(factory.next_seed()).integers(0, 1 << 30)
        b = np.random.default_rng(factory.next_seed()).integers(0, 1 << 30)
        assert a != b

    def test_spawned_counter(self):
        factory = SeedSequenceFactory(3)
        factory.next_seed()
        factory.next_rng()
        assert factory.spawned == 2

    def test_two_factories_same_seed_agree(self):
        fa, fb = SeedSequenceFactory(5), SeedSequenceFactory(5)
        for _ in range(3):
            va = np.random.default_rng(fa.next_seed()).integers(0, 1 << 30)
            vb = np.random.default_rng(fb.next_seed()).integers(0, 1 << 30)
            assert va == vb


class TestScalarUniformIdentity:
    """The DES send path and ``faults.live.FaultyTransport.send`` draw
    ``lo + (hi - lo) * g.random()`` where they used to draw
    ``float(g.uniform(lo, hi))``; seeded bytes depend on the two being
    the same number from the same stream position."""

    @pytest.mark.parametrize(
        "lo, hi",
        [(0.5, 2.0), (0.0, 50.0), (0.0, 250.0), (-0.1, 0.1), (-2.0, 2.0),
         (-10.0, 10.0), (1.0, 2.0), (0.0, 1e-3), (-1e9, 3.0)],
    )
    def test_bit_identical_to_generator_uniform(self, lo, hi):
        a, b = np.random.default_rng(77), np.random.default_rng(77)
        for _ in range(10_000):
            assert lo + (hi - lo) * a.random() == float(b.uniform(lo, hi))
        # ... and both leave the stream at the same position.
        assert a.random() == b.random()

    def test_the_shortened_forms_the_send_path_uses(self):
        a, b = np.random.default_rng(78), np.random.default_rng(78)
        for j, h in [(0.1, 500.0), (2.0, 100.0), (0.0, 7.0), (10.0, 0.3)]:
            for _ in range(2_500):
                assert -j + 2.0 * j * a.random() == float(b.uniform(-j, j))
                assert 0.5 * h * a.random() == float(b.uniform(0, 0.5 * h))
                # FaultyTransport: reorder push-back and duplicate delay.
                assert 1.0 + a.random() == float(b.uniform(1.0, 2.0))
                assert j * a.random() == float(b.uniform(0, j))
