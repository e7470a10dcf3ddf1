"""Discrete-event measurement platform (the paper's Section 8 testbed).

The paper's measurements ran a multithreaded Java implementation on a
50-machine Emulab LAN.  This package reproduces that experiment class on
a deterministic discrete-event engine with virtual milliseconds: the
*full* protocol executes — push-offer/push-reply/data handshake,
digests, unsynchronised jittered rounds, sealed random ports, per-round
resource quotas, buffer purging, per-partner send limits — with
multi-message streams, real attackers, and throughput/latency
measurement.  The same node logic also runs in wall-clock time over
loopback or UDP transports (:mod:`repro.aio`).

One host, :class:`~repro.des.cluster._Cluster`, runs every DES
experiment and, as :class:`~repro.aio.cluster.AioCluster`, every
wall-clock one, over one network on either clock: a node
:class:`~repro.des.environment.Environment` per process, a loopback
transport, and one link (:class:`~repro.faults.live.FaultyTransport`)
that owns loss, latency, cuts and shaping.  Membership is its input —
a plan with churn tokens makes it a CA-certified dynamic group
(Section 10, :mod:`repro.des.churn`) instead of a static one.

Key entry points:

- :class:`~repro.des.cluster.ClusterConfig` /
  :func:`~repro.des.cluster.run_throughput_experiment` — Figure 10/11
  style stream experiments, static or under churn;
- :func:`~repro.des.cluster.run_single_message_experiment` — Figure 9
  style hop-count propagation measurements;
- :class:`~repro.des.node.GossipNode` — the protocol node itself.
"""

from repro.des.engine import EventLoop
from repro.des.environment import Environment, LoopbackTransport
from repro.des.node import GossipNode
from repro.des.attacker import AttackerProcess
from repro.des.measurement import DeliveryRecord, MeasurementResult
from repro.des.cluster import (
    ClusterConfig,
    run_single_message_experiment,
    run_throughput_experiment,
)

__all__ = [
    "AttackerProcess",
    "ClusterConfig",
    "DeliveryRecord",
    "Environment",
    "EventLoop",
    "GossipNode",
    "LoopbackTransport",
    "MeasurementResult",
    "run_single_message_experiment",
    "run_throughput_experiment",
]
