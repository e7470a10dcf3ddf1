"""Invariants of the exact engine's fast path.

Each optimisation keeps the engine byte-identical (pinned by
``tests/test_exact_golden.py``, with its op counts); these tests pin the
*mechanisms* directly — shared address tables, node/port-keyed channel
access, lazy channel RNGs, positional lazy seeds, and the count-based
bulk flood against its naive object-per-packet reference.  ``naive=True``
exists for these tests: it is the textbook definition the bulk path is
held to, not a mode for experiments.
"""

import numpy as np
import pytest

from repro.net.address import Address
from repro.net.channel import BoundedChannel
from repro.net.link import LossModel
from repro.net.network import Network
from repro.net.packet import Packet
from repro.util.rng import LazySeed, SeedSequenceFactory, derive_rng


class TestSharedAddressTables:
    def test_same_table_object_for_every_caller(self):
        net = Network(seed=1)
        members = range(5)
        first = net.wk_addrs(7000, members)
        second = net.wk_addrs(7000, members)
        assert first is second
        assert first[3] == Address(3, 7000)

    def test_table_extends_when_membership_grows(self):
        net = Network(seed=1)
        table = net.wk_addrs(7000, range(3))
        grown = net.wk_addrs(7000, range(5))
        assert grown is table
        assert sorted(table) == [0, 1, 2, 3, 4]

    def test_distinct_ports_get_distinct_tables(self):
        net = Network(seed=1)
        assert net.wk_addrs(7000, range(3)) is not net.wk_addrs(7001, range(3))


class TestNodePortKeyedAccess:
    def test_open_channel_close_roundtrip(self):
        net = Network(seed=1)
        channel = net.open_port_at(4, 7000)
        assert net.channel_at(4, 7000) is channel
        assert net.is_open(Address(4, 7000))
        net.close_port_at(4, 7000)
        assert net.channel_at(4, 7000) is None

    def test_open_is_idempotent_and_counted(self):
        net = Network(seed=1)
        opened = net.channels_opened
        first = net.open_port_at(0, 7000)
        again = net.open_port_at(0, 7000)
        assert first is again
        assert net.channels_opened == opened + 1

    def test_matches_address_keyed_api(self):
        net = Network(seed=1)
        addr = Address(2, 7000)
        channel = net.open_port(addr)
        assert net.get_channel(addr) is channel
        assert net.channel_at(2, 7000) is channel


class TestLazyChannelRng:
    def test_rng_not_built_until_overload(self):
        channel = BoundedChannel(7000, seed=LazySeed(5, (0,), 4))
        for i in range(3):
            channel.deliver(Packet(dst=Address(0, 7000), payload=i))
        assert channel.drain(8) is not None  # under the bound: no draw
        assert channel._rng_obj is None

    def test_overload_builds_rng_and_counts_it(self):
        channel = BoundedChannel(7000, seed=LazySeed(5, (0,), 4))
        channel.inject_fabricated(10)
        channel.deliver(Packet(dst=Address(0, 7000), payload="v"))
        channel.drain(4)
        rng = channel._rng_obj
        assert rng is not None
        assert channel._seed is None
        channel.inject_fabricated(10)
        channel.deliver(Packet(dst=Address(0, 7000), payload="w"))
        channel.drain(4)
        assert channel._rng_obj is rng

    def test_lazy_seed_resolves_to_positional_child(self):
        eager = SeedSequenceFactory(99)
        lazy = SeedSequenceFactory(99)
        for _ in range(3):
            seed = eager.next_seed()
            recipe = lazy.next_lazy()
            assert isinstance(recipe, LazySeed)
            expected = derive_rng(seed).integers(0, 2**32, size=8)
            actual = derive_rng(recipe).integers(0, 2**32, size=8)
            assert (expected == actual).all()


class TestBulkFloodEquivalence:
    def test_fast_flood_counts_without_materialising(self):
        net = Network(seed=1)
        net.open_port_at(0, 7000)
        delivered = net.flood(Address(0, 7000), 50)
        channel = net.channel_at(0, 7000)
        assert delivered == 50  # loss defaults to 0
        assert channel.fabricated_arrivals == 50
        assert channel.valid_arrivals == 0
        assert channel._arrivals == []  # counted, never allocated
        assert net.sent_packets == 50

    def test_naive_flood_materialises_packet_objects(self):
        net = Network(seed=1, naive=True)
        net.open_port_at(0, 7000)
        delivered = net.flood(Address(0, 7000), 50)
        channel = net.channel_at(0, 7000)
        assert delivered == 50
        assert channel.fabricated_arrivals == 50
        assert len(channel._arrivals) == 50
        assert all(p.fabricated for p in channel._arrivals)
        assert net.sent_packets == 50

    def test_flood_to_closed_port_dead_letters(self):
        for naive in (False, True):
            net = Network(seed=1, naive=naive)
            assert net.flood(Address(0, 7000), 10) == 0
            assert net.dead_lettered == 10

    @pytest.mark.parametrize("naive", [False, True])
    def test_lossy_flood_thins_statistically(self, naive):
        loss = 0.25
        count = 400
        net = Network(LossModel(loss, seed=3), seed=3, naive=naive)
        net.open_port_at(0, 7000)
        delivered = net.flood(Address(0, 7000), count)
        assert delivered == net.channel_at(0, 7000).fabricated_arrivals
        assert delivered == count - net.lost_packets
        # 400 Bernoulli(0.75) survivors: mean 300, std ~8.7.
        assert abs(delivered - count * (1 - loss)) < 60

    def test_naive_drain_matches_fast_drain_when_under_bound(self):
        """Below the bound no randomness is drawn, so the modes agree
        exactly: every valid packet is returned, fabricated ones are not."""
        results = {}
        for naive in (False, True):
            channel = BoundedChannel(7000, seed=11, naive=naive)
            for i in range(3):
                channel.deliver(Packet(dst=Address(0, 7000), payload=i))
                channel.deliver(
                    Packet(dst=Address(0, 7000), payload=None, fabricated=True)
                )
            results[naive] = [p.payload for p in channel.drain(10)]
            assert len(channel) == 0
        assert results[False] == results[True] == [0, 1, 2]

    def test_naive_overloaded_drain_acceptance_rate(self):
        """The textbook rule accepts each valid packet w.p. bound/total."""
        rng = np.random.default_rng(5)
        accepted = trials = 0
        for _ in range(300):
            channel = BoundedChannel(
                7000, seed=int(rng.integers(2**31)), naive=True
            )
            for i in range(4):
                channel.deliver(Packet(dst=Address(0, 7000), payload=i))
            for _ in range(12):
                channel.deliver(
                    Packet(dst=Address(0, 7000), payload=None, fabricated=True)
                )
            accepted += len(channel.drain(4))
            trials += 4
        # Acceptance probability 4/16 = 0.25; 1200 valid-packet trials.
        assert abs(accepted / trials - 0.25) < 0.05
