"""Fault injection on the discrete-event cluster stack."""

import json

import pytest

from repro.des.cluster import ClusterConfig, run_throughput_experiment
from repro.faults import FaultPlan

CHAOS = "crash@3:0.15;partition@5-9:0.4;gilbert:0.01,0.3,0.05,0.25"


def chaos_config(**kw):
    defaults = dict(
        protocol="drum", n=20, malicious_fraction=0.1,
        send_rate=20.0, messages=30, faults=CHAOS,
    )
    defaults.update(kw)
    return ClusterConfig(**defaults)


class TestConfigWiring:
    def test_spec_string_normalised(self):
        config = chaos_config()
        assert isinstance(config.faults, FaultPlan)
        assert config.faults.describe() == CHAOS

    def test_empty_spec_is_none(self):
        assert chaos_config(faults="").faults is None

    def test_crash_fraction_validated_against_group(self):
        with pytest.raises(ValueError):
            chaos_config(faults="crash@2:0.99", malicious_fraction=0.0)


class TestChaosExperiment:
    def test_seeded_chaos_runs_are_deterministic(self):
        a = run_throughput_experiment(chaos_config(), seed=7)
        b = run_throughput_experiment(chaos_config(), seed=7)
        assert json.dumps(a.to_jsonable(), sort_keys=True) == json.dumps(
            b.to_jsonable(), sort_keys=True
        )

    def test_reachable_receivers_exclude_permanent_crashes(self):
        result = run_throughput_experiment(chaos_config(), seed=7)
        # n=20, 2 malicious -> 18 correct; crash 0.15 -> 3 victims taken
        # from the top of the id range, never recovering.
        assert result.reachable_receivers == list(range(1, 15))
        assert result.faults == CHAOS

    def test_residual_reliability_beats_raw_delivery_ratio(self):
        result = run_throughput_experiment(chaos_config(), seed=7)
        # The crashed receivers drag the raw ratio down; the residual
        # metric only audits processes that could have been reached.
        assert result.residual_reliability() >= result.delivery_ratio()
        assert result.residual_reliability() >= 0.95  # the DES chaos floor

    def test_fault_keys_only_in_faulted_json(self):
        chaos = run_throughput_experiment(chaos_config(), seed=7)
        plain = run_throughput_experiment(chaos_config(faults=None), seed=7)
        assert "faults" in chaos.to_jsonable()
        assert "residual_reliability" in chaos.to_jsonable()
        assert "faults" not in plain.to_jsonable()
        assert "residual_reliability" not in plain.to_jsonable()

    def test_faultless_seeded_results_unchanged_by_plumbing(self):
        a = run_throughput_experiment(chaos_config(faults=None), seed=9)
        b = run_throughput_experiment(chaos_config(faults=None), seed=9)
        assert json.dumps(a.to_jsonable(), sort_keys=True) == json.dumps(
            b.to_jsonable(), sort_keys=True
        )

    def test_environment_counts_blocked_packets(self):
        config = chaos_config(faults="partition@1-6:0.5")
        from repro.des.cluster import _Cluster

        cluster = _Cluster(config, seed=3)
        cluster.start()
        cluster.clock.run_until(4 * config.round_duration_ms)
        cluster.stop()
        assert cluster.transport.blocked > 0


class TestTimingFaults:
    def test_delay_shifts_packet_arrival(self):
        from conftest import sim_env
        from repro.faults.plan import FaultPlan
        from repro.faults.schedule import FaultSchedule
        from repro.net.address import Address

        env = sim_env(loss=0.0, latency_range_ms=(1.0, 2.0), seed=0)
        env.transport.install(
            FaultSchedule(FaultPlan.parse("delay:50"), n=2, num_alive_correct=2)
        )
        arrivals = []
        env.bind(Address(1, 0), lambda src, payload: arrivals.append(env.now()))
        env.send(Address(0, 0), Address(1, 0), "probe")
        env.clock.run_until(200.0)
        assert len(arrivals) == 1
        assert 51.0 <= arrivals[0] <= 52.0  # base latency + fixed delay

    def test_duplication_counter_ticks(self):
        from repro.des.cluster import _Cluster

        config = chaos_config(faults="dup:0.5", messages=10)
        cluster = _Cluster(config, seed=3)
        cluster.start()
        cluster.clock.run_until(5 * config.round_duration_ms)
        cluster.stop()
        assert cluster.transport.duplicated > 0
