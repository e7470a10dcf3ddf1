"""The asyncio cluster: the one cluster host on the wall clock.

:class:`AioCluster` is :class:`~repro.des.cluster._Cluster` — its group
build, seed order, keys, attackers, membership, network, faults,
tracked multicast and result packaging — on a
:class:`~repro.aio.env.LoopClock`, with the one link round a loopback
or UDP transport.  Nodes are timers on a single :mod:`asyncio` loop,
not threads, so thousands fit one process.  Every entry from outside
catches the clock up to the wall first, so a saturated loop runs the
whole protocol in slow motion; purging counts local rounds, so
reliability survives.  The group, the plan and every RNG stream are
seed-exact; packet interleaving is not.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.adversary.attacks import AttackSpec
from repro.aio.env import LoopClock
from repro.aio.transport import AioLoopbackTransport, UdpTransport
from repro.des.attacker import AttackerProcess
from repro.des.cluster import GroupConfig, _Cluster
from repro.des.measurement import MeasurementResult
from repro.faults.live import FaultyTransport
from repro.faults.plan import FaultPlan
from repro.faults.schedule import FaultSchedule
from repro.net.transport import Transport
from repro.util.rng import SeedLike

#: Transports the config can name.
TRANSPORTS = ("loopback", "udp")


@dataclass(frozen=True)
class AioClusterConfig(GroupConfig):
    """One asyncio-cluster configuration: the shared
    :class:`~repro.des.cluster.GroupConfig` with defaults favouring
    sub-second demo rounds, plus the wall clock's own fields.
    """

    malicious_fraction: float = 0.0
    loss: float = 0.0
    round_duration_ms: float = 200.0
    purge_rounds: int = 20
    #: Stream length for :func:`run_aio_experiment`.
    messages: int = 40
    #: Extra drain after the stream tail is awaited, in round durations —
    #: lets the stream finish spreading before teardown.
    drain_rounds: float = 1.0
    #: ``"loopback"`` (in-process datagrams) or ``"udp"`` (real sockets
    #: via :class:`~repro.aio.transport.UdpTransport`).
    transport: str = "loopback"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"transport must be one of {TRANSPORTS}, got "
                f"{self.transport!r}"
            )
        from repro.api.engines import get_engine

        get_engine("aio").check(self)


class AioCluster(_Cluster):
    """The host on the wall clock: construct (loop-free, no seed drawn)
    → ``await start()`` (builds the host on the running loop) →
    multicast → ``await stop()``.

    Its clock is a :class:`LoopClock` on the running loop, and the link
    wraps a loopback or UDP transport on it with a base latency of 0.
    Methods assume loop context.
    """

    stack = "aio"

    def __init__(
        self,
        config: AioClusterConfig,
        *,
        seed: SeedLike = None,
        tracer=None,
        transport: Optional[Transport] = None,
    ):
        # A service scraping the tracer from other threads passes
        # ``Tracer(..., thread_safe=True)``.
        self._setup(config, seed, tracer)
        self._given_transport = transport
        self.transport: Optional[FaultyTransport] = None
        #: Every timer and in-flight datagram of the cluster, once started.
        self.clock: Optional[LoopClock] = None
        self._started_at: Optional[float] = None
        self._stopped = False
        #: ``await_delivery`` calls in progress: (msg id, needed, future).
        self._waiters: List[Tuple[Tuple[int, int], int, asyncio.Future]] = []

    # -- the network ----------------------------------------------------------

    def _build_network(self) -> Tuple[Transport, Tuple[float, float]]:
        config = self.config
        loop = asyncio.get_running_loop()
        transport = self._given_transport
        if transport is None:
            transport = (
                UdpTransport() if config.transport == "udp"
                else AioLoopbackTransport()
            )
        if isinstance(transport, UdpTransport):
            # Refused before any bind: past the range a bind raises
            # halfway through the group, and sends to the rest raise.
            ids = config.n if self.schedule is None else self.schedule.total_n
            if ids > transport.max_ids:
                raise ValueError(
                    f"a UDP group of {ids} ids does not fit ports "
                    f"{transport.base_port}-65535 at "
                    f"{transport.ports_per_node} per id: at most "
                    f"{transport.max_ids} ids (n plus churn joiners)"
                )
        round_ms = config.round_duration_ms
        ticks = getattr(transport, "_TICKS_PER_ROUND", 128)  # else as UDP
        wakes = getattr(transport, "_WAKES_PER_ROUND", ticks)
        self.clock = LoopClock(loop, round_ms / ticks, round_ms / wakes)
        attach = getattr(transport, "attach", None)
        if attach is not None:
            attach(loop, self.clock)
        return transport, (0.0, 0.0)

    def _stamp(self) -> float:
        """Loop time in ms, the base ``loop.time()`` callers measure in."""
        return self.clock.time() * 1000.0

    @property
    def shaper(self) -> Optional[FaultyTransport]:
        """The link, once a fault plan is installed (status reports)."""
        return None if self.schedule is None else self.transport

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Build the host on the running loop, then start it."""
        if self._stopped:
            raise RuntimeError("cluster already stopped")
        if self.clock is not None:
            raise RuntimeError("cluster already started")
        self._build()
        self._started_at = self._stamp()
        _Cluster.start(self)

    async def stop(self) -> None:
        """Tear down.  Idempotent; environments close even on failure."""
        if self._stopped:
            return
        self._stopped = True
        if self.clock is not None:  # what was due before the stop lands
            self.clock.catch_up()
        try:
            _Cluster.stop(self)
        finally:
            for proc in (
                *self.nodes.values(), *self.departed.values(), *self.attackers
            ):
                proc.env.close()
            if self.transport is not None:
                self.transport.close()
            if self.clock is not None:
                self.clock.close()
        self._recheck()
        if self.tracer is not None and self._started_at is not None:
            self.tracer.run_end(delivered=len(self.log.deliveries))
        # Let cancelled callbacks drain before the loop is torn down.
        await asyncio.sleep(0)

    def _require_running(self) -> None:
        if self.clock is None or self._stopped:
            raise RuntimeError("cluster is not running")
        self.clock.catch_up()

    # -- runtime injection (the service's control plane) ----------------------

    def inject_faults(self, plan: Union[FaultPlan, str]) -> None:
        """Apply a fault plan to a *running* cluster, fault round 1
        anchored now.  One plan at a time — stack refinements by
        describing them in one spec.
        """
        if isinstance(plan, str):
            plan = FaultPlan.parse(plan)
        if plan.has_churn:
            raise ValueError(
                f"churn tokens in {plan.describe()!r} need a group built "
                f"with them: configure the plan before start() instead"
            )
        if plan.is_empty:
            return
        if self.schedule is not None:
            raise RuntimeError(
                "a fault plan is already installed; describe the whole "
                "condition in one spec"
            )
        self._require_running()
        config = self.config
        schedule = FaultSchedule(
            plan, n=config.n, num_alive_correct=config.num_correct
        )
        self._install_faults(schedule, self._seeds.next_seed())
        # The *post-injection* config carries the plan, as a configured
        # run's does.
        self.config = replace(config, faults=plan)

    def inject_attack(self, spec: AttackSpec) -> AttackerProcess:
        """Start a DoS attacker against a running cluster."""
        self._require_running()
        attacker = self._spawn_attacker(spec, self._seeds.next_seed())
        attacker.start()
        return attacker

    # -- application API ------------------------------------------------------

    def multicast(
        self, source: int, payload: object
    ) -> Optional[Tuple[int, int]]:
        """Multicast ``payload`` from ``source`` and track deliveries.
        None when ``source`` is down or no member: the send is lost."""
        self.clock.catch_up()
        return self.multicast_tracked(source, payload)

    async def await_delivery(
        self,
        msg_id: Tuple[int, int],
        *,
        fraction: float = 1.0,
        timeout_s: float = 30.0,
    ) -> bool:
        """Wait until ``fraction`` of correct processes delivered ``msg_id``:
        True from the pass that gets there, False once ``timeout_s`` of
        clock time (slow motion on a saturated loop) or a stop passes.

        Raises :class:`RuntimeError` if any node callback has died —
        waiting out the timeout against a dead node would just report a
        bogus delivery failure.
        """
        needed = max(1, int(fraction * len(self.config.correct_ids())))
        self.clock.catch_up()
        waiter = (msg_id, needed, asyncio.get_running_loop().create_future())
        self._waiters.append(waiter)
        self._recheck()  # no loop timer: the deadline is a clock event
        deadline = self.clock.schedule(timeout_s * 1000.0, _wake, waiter[2])
        try:
            await waiter[2]
        finally:
            deadline.cancel()
            self._waiters.remove(waiter)
        if self.node_errors:
            pid, exc = self.node_errors[0]
            raise RuntimeError(
                f"{len(self.node_errors)} node callback error(s); "
                f"first from node {pid}: {exc!r}"
            ) from exc
        return len(self.log.receivers.get(msg_id, ())) >= needed

    def _recheck(self) -> None:
        """Wake each delivery wait that is over: its threshold crossed,
        a node callback dead, or the cluster stopped."""
        over, receivers = self.node_errors or self._stopped, self.log.receivers
        for msg_id, needed, done in self._waiters:
            if over or len(receivers.get(msg_id, ())) >= needed:
                _wake(done)

    def _record(self, pid: int, message, now_ms: float) -> None:
        _Cluster._record(self, pid, message, now_ms)
        if self._waiters:
            self._recheck()

    def _record_node_error(self, pid: int, exc: BaseException) -> None:
        _Cluster._record_node_error(self, pid, exc)
        self._recheck()

    def delivered_counts(self) -> Dict[Tuple[int, int], int]:
        """Receivers reached per tracked message (status queries)."""
        self.clock.catch_up()
        return {mid: len(got) for mid, got in self.log.receivers.items()}

    def result(self, send_rate: float, messages_sent: int) -> MeasurementResult:
        """Package the delivery log from start until now."""
        if self._started_at is None:
            raise RuntimeError("cluster was never started")
        return self.measurement(
            send_rate, messages_sent, self._started_at, self._stamp(),
            horizon_ms=self.clock.now,
        )


def _wake(done: asyncio.Future) -> None:
    if not done.done():
        done.set_result(None)


def run_aio_experiment(
    config: AioClusterConfig, *, seed: SeedLike = None, tracer=None
) -> MeasurementResult:
    """Stream ``config.messages`` through an asyncio cluster.

    The synchronous entry point (``asyncio.run`` inside): build and
    start the cluster, stream from the source at ``send_rate``, await
    the stream tail reaching half the group, drain ``drain_rounds``
    extra round durations, tear down, and package the measurement.
    """

    async def _run() -> MeasurementResult:
        cluster = AioCluster(config, seed=seed, tracer=tracer)
        try:
            await cluster.start()
            interval_s = 1.0 / config.send_rate
            last_id = None
            for i in range(config.messages):
                last_id = cluster.multicast(
                    config.source, f"msg-{i}".encode()
                )
                if i + 1 < config.messages:
                    await asyncio.sleep(interval_s)
            if last_id is not None:
                await cluster.await_delivery(
                    last_id,
                    fraction=0.5,
                    timeout_s=max(
                        2.0, 10 * config.round_duration_ms / 1000.0
                    ),
                )
            if config.drain_rounds > 0:
                await asyncio.sleep(
                    config.drain_rounds * config.round_duration_ms / 1000.0
                )
        finally:
            await cluster.stop()
        return cluster.result(config.send_rate, config.messages)

    return asyncio.run(_run())
