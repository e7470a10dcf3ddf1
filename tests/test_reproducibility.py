"""Reproducibility guarantees: everything is a pure function of its seed."""

import numpy as np
import pytest

from repro.adversary import AttackSpec, FrontierAttacker
from repro.des import ClusterConfig, run_throughput_experiment
from repro.sim import RoundSimulator, Scenario, run_exact, run_fast


class TestSimulationReproducibility:
    def test_exact_engine_replays(self):
        scenario = Scenario(
            protocol="drum", n=40, malicious_fraction=0.1,
            attack=AttackSpec(alpha=0.1, x=32),
        )
        a = run_exact(scenario, seed=99)
        b = run_exact(scenario, seed=99)
        assert (a.counts == b.counts).all()
        assert (a.delivery_rounds[~np.isnan(a.delivery_rounds)]
                == b.delivery_rounds[~np.isnan(b.delivery_rounds)]).all()

    def test_fast_engine_replays(self):
        scenario = Scenario(
            protocol="pull", n=60, malicious_fraction=0.1,
            attack=AttackSpec(alpha=0.2, x=64),
        )
        a = run_fast(scenario, runs=20, seed=7)
        b = run_fast(scenario, runs=20, seed=7)
        assert (a.counts == b.counts).all()

    def test_adaptive_attacker_replays(self):
        scenario = Scenario(
            protocol="drum", n=40, malicious_fraction=0.1,
            attack=AttackSpec(alpha=0.2, x=32),
        )

        def frontier(s, net, seed):
            return FrontierAttacker(
                s.attack, s.protocol, s.alive_correct_ids(), net, n=s.n,
                seed=seed,
            )

        a = RoundSimulator(scenario, seed=5, attacker_factory=frontier).run()
        b = RoundSimulator(scenario, seed=5, attacker_factory=frontier).run()
        assert (a.counts == b.counts).all()

    def test_different_seeds_differ(self):
        scenario = Scenario(protocol="drum", n=40)
        a = run_exact(scenario, seed=1)
        b = run_exact(scenario, seed=2)
        assert len(a.counts) != len(b.counts) or (a.counts != b.counts).any()

    def test_perturbed_scenario_replays(self):
        scenario = Scenario(
            protocol="drum", n=40,
            perturbed_fraction=0.3, perturbation_prob=0.5,
        )
        a = run_fast(scenario, runs=10, seed=11)
        b = run_fast(scenario, runs=10, seed=11)
        assert (a.counts == b.counts).all()


class TestMeasurementReproducibility:
    def test_throughput_experiment_replays(self):
        config = ClusterConfig(
            n=10, malicious_fraction=0.0, messages=40,
            send_rate=20.0, round_duration_ms=200.0,
        )
        a = run_throughput_experiment(config, seed=3)
        b = run_throughput_experiment(config, seed=3)
        assert len(a.deliveries) == len(b.deliveries)
        assert a.throughput().mean_msgs_per_sec == pytest.approx(
            b.throughput().mean_msgs_per_sec
        )
        latencies_a = sorted(r.latency_ms for r in a.deliveries)
        latencies_b = sorted(r.latency_ms for r in b.deliveries)
        assert latencies_a == pytest.approx(latencies_b)

    def test_seeded_des_envelopes_are_byte_identical(self):
        """Message serials are scoped per cluster, not per process.

        With a module-global counter the second run's messages would
        carry continued serials and the envelopes would only match
        after canonicalisation; per-cluster scoping makes the raw JSON
        byte-equal.
        """
        import json

        config = ClusterConfig(
            n=8, messages=10, send_rate=50.0, round_duration_ms=100.0,
        )
        a = run_throughput_experiment(config, seed=17)
        b = run_throughput_experiment(config, seed=17)
        assert [r.msg_id for r in a.deliveries][0] == (0, 0)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_seeded_churn_envelopes_are_byte_identical(self):
        import json

        config = ClusterConfig(
            n=12, messages=8, send_rate=50.0, round_duration_ms=100.0,
            faults="join@3:0.25; leave@6:0.2",
        )
        a = run_throughput_experiment(config, seed=19)
        b = run_throughput_experiment(config, seed=19)
        assert a.churn is not None
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )
