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

A paper figure is one grid, run one way::

    from repro import rate_grid

    report = rate_grid(["drum", "push", "pull"], [0, 32, 64, 128],
                       runs=100, seed=1).run(store="results/.cache")
    print(report.to_json())

Attach a :class:`Tracer` to any engine for a typed event stream (round
markers, sends, bounded-acceptance wins, drops by reason, deliveries,
fault transitions) through pluggable sinks; seeded runs are
byte-identical with tracing on or off.  Everything else lives in the
subpackages (:mod:`repro.sim`, :mod:`repro.des`, :mod:`repro.sweep`,
:mod:`repro.analysis`, ...).
"""

from repro.adversary import AttackSpec
from repro.api import Experiment, result_from_dict
from repro.faults import FaultPlan
from repro.obs import JsonlSink, MemorySink, PrometheusSink, Tracer
from repro.sweep import (
    ResultStore,
    budget_grid,
    churn_grid,
    extent_grid,
    rate_grid,
)

__version__ = "1.0.0"

__all__ = [
    "AttackSpec",
    "Experiment",
    "FaultPlan",
    "JsonlSink",
    "MemorySink",
    "PrometheusSink",
    "ResultStore",
    "Tracer",
    "__version__",
    "budget_grid",
    "churn_grid",
    "extent_grid",
    "rate_grid",
    "result_from_dict",
]
