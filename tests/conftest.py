"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.adversary import AttackSpec
from repro.des.engine import EventLoop
from repro.des.environment import Environment, LoopbackTransport
from repro.faults.live import FaultyTransport
from repro.sim import Scenario


def sim_env(*, loss=0.0, latency_range_ms=(0.5, 2.0), seed=None):
    """A node environment on the virtual clock, over the network the DES
    host builds: an ``EventLoop``, a loopback transport and the link.

    Nodes built on one share it; ``env.clock`` runs them and
    ``env.transport`` is the link (``.inner`` the loopback).
    """
    clock = EventLoop()
    link = FaultyTransport(
        LoopbackTransport(clock), round_duration_ms=1000.0, seed=seed,
        loss=loss, latency_range_ms=latency_range_ms,
    )
    return Environment(link, clock=clock)


@pytest.fixture
def rng():
    """A deterministic generator for tests that sample."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_scenario():
    """A fast no-attack scenario for engine tests."""
    return Scenario(protocol="drum", n=30, loss=0.01)


@pytest.fixture
def attacked_scenario():
    """A fast attacked scenario: 10 % malicious, α = 10 %, x = 64."""
    return Scenario(
        protocol="drum",
        n=60,
        malicious_fraction=0.1,
        attack=AttackSpec(alpha=0.1, x=64),
    )
