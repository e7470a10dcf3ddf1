"""The asyncio gossip service runtime.

One :mod:`asyncio` event loop hosts thousands of
:class:`~repro.des.node.GossipNode` instances — the same protocol class
the discrete-event stack runs — as cooperatively scheduled tasks over an
in-process datagram loopback
(:class:`~repro.aio.transport.AioLoopbackTransport`) or real UDP sockets
the same loop reads (:class:`~repro.aio.transport.UdpTransport`).

It is the repository's one wall-clock stack: the DES's cluster host
(:class:`~repro.des.cluster._Cluster`) and its one network — node
environments, loopback transport and link — on a wall clock, one heap
entry per node round rather than an OS thread per node.  Load
shows up as slow motion — every timer and link delay on the one
:class:`~repro.aio.env.LoopClock` stretches together, and purging
counts *local* rounds — so reliability survives load.

Entry points:

- :class:`~repro.aio.cluster.AioCluster` /
  :func:`~repro.aio.cluster.run_aio_experiment` — programmatic runs;
- ``Experiment.run(engine="aio")`` — the registry path (a row of
  :mod:`repro.api.engines`' built-in table);
- :class:`~repro.aio.service.GossipService` / ``repro serve`` — a live
  control plane: start/stop clusters, inject faults and attacks, scrape
  Prometheus metrics, stream observability events as JSONL.
"""

from repro.aio.cluster import AioCluster, AioClusterConfig, run_aio_experiment
from repro.aio.env import LoopClock
from repro.aio.service import EventStreamSink, GossipService
from repro.aio.transport import AioLoopbackTransport, UdpTransport

__all__ = [
    "AioCluster",
    "AioClusterConfig",
    "AioLoopbackTransport",
    "EventStreamSink",
    "GossipService",
    "LoopClock",
    "UdpTransport",
    "run_aio_experiment",
]
