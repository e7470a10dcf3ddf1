"""Tests for repro.net.address."""

import pickle

import pytest

from repro.net import (
    PORT_PULL_REPLY,
    PORT_PULL_REQUEST,
    PORT_PUSH_DATA,
    PORT_PUSH_OFFER,
    RANDOM_PORT_BASE,
    Address,
)


class TestWellKnownPorts:
    def test_distinct(self):
        ports = {PORT_PUSH_OFFER, PORT_PUSH_DATA, PORT_PULL_REQUEST, PORT_PULL_REPLY}
        assert len(ports) == 4

    def test_below_random_region(self):
        for port in (PORT_PUSH_OFFER, PORT_PUSH_DATA, PORT_PULL_REQUEST, PORT_PULL_REPLY):
            assert port < RANDOM_PORT_BASE


class TestAddress:
    def test_equality_and_hash(self):
        assert Address(1, 2) == Address(1, 2)
        assert hash(Address(1, 2)) == hash(Address(1, 2))
        assert Address(1, 2) != Address(1, 3)

    def test_is_well_known(self):
        assert Address(0, PORT_PUSH_OFFER).is_well_known()
        assert not Address(0, RANDOM_PORT_BASE).is_well_known()

    def test_with_port(self):
        addr = Address(5, 1)
        moved = addr.with_port(9000)
        assert moved.node == 5 and moved.port == 9000
        assert addr.port == 1  # original unchanged

    def test_negative_node_rejected(self):
        with pytest.raises(ValueError):
            Address(-1, 0)

    def test_negative_port_rejected(self):
        with pytest.raises(ValueError):
            Address(0, -1)

    def test_ordering(self):
        assert Address(0, 5) < Address(1, 0)
        assert Address(1, 0) < Address(1, 3)


PAIRS = [(3, 1), (0, 1025), (3, 0), (1, 2), (0, 1), (10**6, 0), (7, 2048)]


class TestAddressContract:
    """A validated tuple: C-level hash and equality, with the hash values,
    order and errors of the ``(node, port)`` pair it replaced."""

    def test_hash_is_the_pair_hash(self):
        for node, port in PAIRS:
            assert hash(Address(node, port)) == hash((node, port))

    def test_set_and_sorted_orders_are_the_pairs(self):
        addrs = [Address(*p) for p in PAIRS]
        assert [tuple(a) for a in sorted(addrs)] == sorted(PAIRS)
        assert [tuple(a) for a in set(addrs)] == list(set(PAIRS))

    @pytest.mark.parametrize("node, port", [(-1, 0), (0, -1), (-3, -3)])
    def test_negative_ids_raise(self, node, port):
        with pytest.raises(ValueError, match="must be >= 0"):
            Address(node, port)
        with pytest.raises(ValueError, match="must be >= 0"):
            Address(node=node, port=port)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trips(self, protocol):
        # UdpTransport ships ``(src, payload)`` pickled.
        src, payload = pickle.loads(
            pickle.dumps((Address(4, 1030), "x"), protocol)
        )
        assert type(src) is Address
        assert (src, src.node, src.port, payload) == (
            Address(4, 1030), 4, 1030, "x",
        )

    def test_dict_key_beside_other_addresses(self):
        table = {Address(*p): p for p in PAIRS}
        table[Address(3, 1)] = "again"
        assert len(table) == len(PAIRS)
        assert table[Address(3, 1)] == "again"
        assert table[Address(3, 0)] == (3, 0)
        assert Address(1, 3) not in table

    def test_repr_and_str(self):
        assert repr(Address(1, 2)) == "Address(node=1, port=2)"
        assert str(Address(1, 2)) == "1:2"
