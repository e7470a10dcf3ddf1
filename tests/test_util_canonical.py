"""Tests for the canonical token encoder behind cache keys."""

import dataclasses
import enum

import numpy as np
import pytest

from repro.adversary import AttackSpec
from repro.des import ClusterConfig
from repro.sim import Scenario
from repro.util.canonical import canonical_json, canonical_key, canonical_token


class Colour(enum.Enum):
    RED = "red"
    BLUE = "blue"


@dataclasses.dataclass(frozen=True)
class Point:
    x: int
    y: int


@dataclasses.dataclass(frozen=True)
class OtherPoint:
    x: int
    y: int


class TestScalars:
    def test_passthrough(self):
        assert canonical_token(None) is None
        assert canonical_token(True) is True
        assert canonical_token("s") == "s"
        assert canonical_token(3) == 3
        assert canonical_token(1.5) == 1.5

    def test_numpy_scalars_coerce_to_python(self):
        assert canonical_token(np.int64(3)) == 3
        assert canonical_token(np.float64(1.5)) == 1.5
        assert canonical_token(np.bool_(True)) is True
        assert canonical_json(np.float32(2.0)) == canonical_json(2.0)

    def test_int_float_distinct(self):
        # 3 and 3.0 are different experiment inputs; keys must differ.
        assert canonical_key(3) != canonical_key(3.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))


class TestContainers:
    def test_list_tuple_equivalent(self):
        assert canonical_json([1, 2]) == canonical_json((1, 2))

    def test_nesting_cannot_collide_with_scalars(self):
        assert canonical_json([1]) != canonical_json(1)
        assert canonical_json(["l"]) != canonical_json("l")

    def test_dict_key_order_irrelevant(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json(
            {"b": 2, "a": 1}
        )

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(TypeError):
            canonical_token({1: "a"})


class TestDataclassesAndEnums:
    def test_dataclass_round_trip_stability(self):
        assert canonical_key(Point(1, 2)) == canonical_key(Point(1, 2))
        assert canonical_key(Point(1, 2)) != canonical_key(Point(2, 1))

    def test_same_fields_different_type_differ(self):
        # The v2 repr/asdict encoder erased the type and collided these.
        assert canonical_key(Point(1, 2)) != canonical_key(OtherPoint(1, 2))

    def test_enum_distinct_from_value(self):
        assert canonical_key(Colour.RED) != canonical_key("red")
        assert canonical_key(Colour.RED) != canonical_key(Colour.BLUE)

    def test_scenario_with_attack_and_faults(self):
        def build():
            return Scenario(
                protocol="drum", n=50, malicious_fraction=0.1,
                attack=AttackSpec(alpha=0.2, x=64.0),
                faults="crash@5:0.1;partition@8-15:0.4",
            )

        assert canonical_key(build()) == canonical_key(build())

    def test_cluster_config_key_is_pinned(self):
        # Sweep-store keys of DES measurement cells: the key covers the
        # class's qualified name and its field names, not where in the
        # class hierarchy a field is declared.
        config = ClusterConfig(
            protocol="pull", n=30, malicious_fraction=0.2,
            attack=AttackSpec(alpha=0.1, x=32.0), loss=0.02, messages=50,
            faults="crash@4-8:0.1; join@5:0.1",
        )
        assert canonical_key(config) == (
            "a16bc7150e452f74d7b3e773bdf84a38e71d6cb3402d6092e07ce96fa64ccea1"
        )


class TestSeedSequences:
    def test_same_entropy_same_key(self):
        a = np.random.SeedSequence(42)
        b = np.random.SeedSequence(42)
        assert canonical_key(a) == canonical_key(b)

    def test_spawned_children_differ(self):
        parent = np.random.SeedSequence(42)
        kids = parent.spawn(2)
        assert canonical_key(kids[0]) != canonical_key(kids[1])
        assert canonical_key(kids[0]) != canonical_key(parent)


class TestStrictness:
    def test_unknown_types_raise(self):
        with pytest.raises(TypeError):
            canonical_token(object())
        with pytest.raises(TypeError):
            canonical_token(np.random.default_rng(1))
        with pytest.raises(TypeError):
            canonical_token({1, 2})

    def test_json_is_compact_ascii(self):
        text = canonical_json({"k": [1, "é"]})
        assert " " not in text
        assert text.encode("ascii")
