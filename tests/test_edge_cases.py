"""Edge-case coverage across modules."""

import pytest

from repro.adversary import AttackSpec
from repro.core import DataMessage, ProtocolConfig
from repro.des import GossipNode
from repro.net import Address
from repro.sim import Scenario, monte_carlo, run_fast
from conftest import sim_env


class TestDataQuotaExhaustion:
    def test_push_data_quota_drops_excess(self):
        env = sim_env(seed=1)
        config = ProtocolConfig.drum()
        node = GossipNode(env, 0, config, [0, 1], seed=2, data_bound=2)
        node.start()
        node.bounds.reset()
        from repro.core.message import PushData

        msg = DataMessage(msg_id=(1, 1), source=1, payload=b"x")
        bundle = PushData(sender=1, messages=(msg,))
        # data_bound=2 split as 1 push + 1 pull slot.
        node._on_push_data(Address(1, 1), bundle)
        delivered_first = node.stats["data_messages_delivered"]
        node._on_push_data(Address(1, 1), bundle)
        assert node.stats["data_messages_delivered"] == delivered_first
        assert node.bounds.rejected["push_data"] >= 1


class TestTinyGroups:
    def test_two_process_group_fast_engine(self):
        scenario = Scenario(protocol="drum", n=6, fan_out=2, loss=0.0)
        result = run_fast(scenario, runs=20, seed=3)
        assert (result.counts[:, -1] == 6).all()

    def test_minimum_attack_one_victim(self):
        scenario = Scenario(
            protocol="drum", n=20, attack=AttackSpec(alpha=0.05, x=16)
        )
        assert scenario.num_attacked == 1
        result = monte_carlo(scenario, runs=30, seed=4)
        assert result.mean_rounds() < 20


class TestThresholdExtremes:
    def test_threshold_one_process(self):
        scenario = Scenario(protocol="drum", n=30, threshold=0.01)
        # The source alone satisfies a 1% threshold.
        assert scenario.threshold_count() == 1
        result = run_fast(scenario, runs=5, seed=5)
        assert (result.rounds_to_threshold() == 0).all()

    def test_full_threshold_with_loss(self):
        scenario = Scenario(
            protocol="push", n=30, loss=0.05, threshold=1.0, max_rounds=200
        )
        result = monte_carlo(scenario, runs=30, seed=6)
        assert result.censored_runs() == 0


class TestConfigEdges:
    def test_fan_out_two_drum(self):
        cfg = ProtocolConfig.drum(fan_out=2)
        assert cfg.view_push_size == 1
        assert cfg.pull_in_bound == 1

    def test_large_fan_out(self):
        scenario = Scenario(protocol="push", n=40, fan_out=10)
        result = monte_carlo(scenario, runs=20, seed=7)
        small = monte_carlo(
            Scenario(protocol="push", n=40, fan_out=2), runs=20, seed=7
        )
        assert result.mean_rounds() < small.mean_rounds()


class TestAttackEdges:
    def test_x_zero_attack_is_harmless(self):
        base = monte_carlo(Scenario(protocol="drum", n=40), runs=50, seed=8)
        nil = monte_carlo(
            Scenario(
                protocol="drum", n=40, attack=AttackSpec(alpha=0.5, x=0.0)
            ),
            runs=50, seed=8,
        )
        assert nil.mean_rounds() == pytest.approx(base.mean_rounds(), abs=1.0)

    def test_alpha_covering_every_correct_process(self):
        scenario = Scenario(
            protocol="drum", n=20, malicious_fraction=0.0,
            attack=AttackSpec(alpha=1.0, x=16), max_rounds=300,
        )
        result = monte_carlo(scenario, runs=30, seed=9)
        assert result.mean_rounds() < 100
