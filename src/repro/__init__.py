"""Drum: DoS-resistant gossip-based multicast.

A production-quality reproduction of *"Exposing and Eliminating
Vulnerabilities to Denial of Service Attacks in Secure Gossip-Based
Multicast"* (Badishi, Keidar & Sasson, DSN 2004): the Drum protocol, the
Push and Pull baselines, the Section 9 ablation variants, the paper's
DoS-evaluation methodology, its closed-form and numerical analyses, and
simulation/measurement harnesses regenerating every figure.

Quick start — one experiment description, any execution stack::

    from repro import AttackSpec, Experiment

    exp = Experiment(
        protocol="drum", n=120, malicious_fraction=0.1,
        attack=AttackSpec(alpha=0.1, x=128), runs=100,
    )
    result = exp.run("fast", seed=1)     # vectorised Monte-Carlo
    print(result.mean_rounds())   # rounds to reach 99 % of correct processes
    measured = exp.run("des", seed=1)    # discrete-event measurement
    print(measured.delivery_ratio())

The stack-native entry points remain fully supported::

    from repro import Scenario, monte_carlo

    scenario = Scenario(
        protocol="drum", n=120, malicious_fraction=0.1,
        attack=AttackSpec(alpha=0.1, x=128),
    )
    result = monte_carlo(scenario, runs=100, seed=1)

Attach a :class:`repro.obs.Tracer` to any engine for a typed event
stream (round markers, sends, bounded-acceptance wins, drops by reason,
deliveries, fault transitions) through pluggable sinks; seeded runs are
byte-identical with tracing on or off.
"""

from repro.adversary import (
    AttackSpec,
    PortLoad,
    RoundAttacker,
    fixed_budget_sweep,
    increasing_extent_sweep,
    increasing_rate_sweep,
    relative_budget_sweep,
)
from repro.api import Experiment, result_from_dict
from repro.core import (
    DrumProcess,
    GossipProcess,
    MessageBuffer,
    ProtocolConfig,
    ProtocolKind,
    PullProcess,
    PushProcess,
)
from repro.obs import JsonlSink, MemorySink, PrometheusSink, Tracer
from repro.sim import (
    MonteCarloResult,
    ResultStore,
    RoundSimulator,
    RunResult,
    Scenario,
    budget_sweep,
    churn_sweep,
    default_runs,
    default_workers,
    extent_sweep,
    monte_carlo,
    rate_sweep,
    run_exact,
    run_fast,
)

__version__ = "1.0.0"

__all__ = [
    "AttackSpec",
    "DrumProcess",
    "Experiment",
    "GossipProcess",
    "JsonlSink",
    "MemorySink",
    "MessageBuffer",
    "MonteCarloResult",
    "PortLoad",
    "PrometheusSink",
    "ProtocolConfig",
    "ProtocolKind",
    "PullProcess",
    "PushProcess",
    "ResultStore",
    "RoundAttacker",
    "RoundSimulator",
    "RunResult",
    "Scenario",
    "Tracer",
    "__version__",
    "budget_sweep",
    "churn_sweep",
    "default_runs",
    "default_workers",
    "extent_sweep",
    "rate_sweep",
    "fixed_budget_sweep",
    "increasing_extent_sweep",
    "increasing_rate_sweep",
    "monte_carlo",
    "relative_budget_sweep",
    "result_from_dict",
    "run_exact",
    "run_fast",
]
