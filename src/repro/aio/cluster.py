"""The asyncio cluster: thousands of protocol nodes on one event loop.

:class:`AioCluster` runs the discrete-event stack's
:class:`~repro.des.node.GossipNode` and
:class:`~repro.des.attacker.AttackerProcess` in wall-clock time.  It
shares with the DES host everything that is neither clock nor network:
the group config (:class:`~repro.des.cluster.GroupConfig`), the
:class:`~repro.des.measurement.DeliveryLog` and its
:class:`~repro.des.measurement.MeasurementResult` packaging, and the
crash-window arming (:func:`~repro.faults.live.arm_flips`).  Every
node runs as timers on a single :mod:`asyncio` loop — a heap entry per
node, not a thread — so group
sizes in the thousands fit one process, over in-process loopback or
real UDP.

Wall-clock fidelity: all timers, datagrams and stamps share one
:class:`~repro.aio.env.LoopClock`, which every entry from outside
first catches up to the wall, so a saturated loop runs the whole
protocol in slow motion, and purging counts local rounds, so
reliability survives; latency in milliseconds stretches with the load.
The determinism contract is the wall-clock one — the fault/attack
*plan* is seed-exact, packet interleaving is not.

Runtime injection (for :class:`~repro.aio.service.GossipService`):
:meth:`AioCluster.inject_faults` wraps the cluster's transport in a
:class:`~repro.faults.live.FaultyTransport` mid-run, and
:meth:`AioCluster.inject_attack` spawns an
:class:`~repro.des.attacker.AttackerProcess` on its own environment —
the identical attacker the discrete-event stack runs.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.adversary.attacks import AttackSpec
from repro.aio.env import AsyncEnvironment, LoopClock
from repro.aio.transport import AioLoopbackTransport, AioUdpBridge
from repro.core.message import MessageIdFactory
from repro.crypto.signatures import SignatureRegistry
from repro.des.attacker import AttackerProcess
from repro.des.cluster import GroupConfig
from repro.des.measurement import DeliveryLog, MeasurementResult
from repro.des.node import GossipNode
from repro.faults.live import FaultyTransport, arm_flips
from repro.faults.plan import FaultPlan
from repro.net.link import LossModel
from repro.net.transport import Transport, UdpTransport
from repro.util import SeedSequenceFactory
from repro.util.rng import SeedLike

#: Transports the config can name.
TRANSPORTS = ("loopback", "udp")


@dataclass(frozen=True)
class AioClusterConfig(GroupConfig):
    """One asyncio-cluster configuration: the shared
    :class:`~repro.des.cluster.GroupConfig` with defaults favouring
    sub-second demo rounds, plus the wall clock's own fields.  Churn
    tokens are refused — this runtime keeps a fixed membership.
    """

    malicious_fraction: float = 0.0
    loss: float = 0.0
    round_duration_ms: float = 200.0
    purge_rounds: int = 20
    #: Stream length for :func:`run_aio_experiment`.
    messages: int = 40
    #: Extra drain after the stream tail is awaited, in round durations —
    #: lets earlier messages' tails finish spreading before teardown.
    drain_rounds: float = 0.0
    #: ``"loopback"`` (in-process datagrams) or ``"udp"`` (real sockets
    #: via :class:`~repro.net.transport.UdpTransport`).
    transport: str = "loopback"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"transport must be one of {TRANSPORTS}, got "
                f"{self.transport!r}"
            )
        from repro.aio.engine import AIO_MAX_N

        if self.n > AIO_MAX_N:
            from repro.api.engines import group_size_refusal

            raise ValueError(group_size_refusal("aio", self.n))
        if self.faults is not None and self.faults.has_churn:
            from repro.api.engines import churn_refusal

            raise ValueError(churn_refusal("aio", self.faults))


class AioCluster:
    """Asyncio cluster lifecycle: build → ``await start()`` → multicast
    → ``await stop()``.

    Construction is loop-free (it only records the config and draws no
    seeds); :meth:`start` must run on the event loop and builds every
    environment and node there.  All other methods assume loop context
    unless noted.
    """

    def __init__(
        self,
        config: AioClusterConfig,
        *,
        seed: SeedLike = None,
        tracer=None,
        transport: Optional[Transport] = None,
    ):
        self.config = config
        # Observability: a repro.obs Tracer or None.  Events are
        # ``t``-stamped (ms) by the clock.  Node callbacks all run on the
        # loop, but a service may scrape from other threads — pass
        # ``Tracer(..., thread_safe=True)`` when sharing one.
        self.tracer = tracer
        self._seeds = SeedSequenceFactory(seed)
        self._given_transport = transport
        self.transport: Optional[Transport] = None
        self._fault_transport: Optional[FaultyTransport] = None
        self.envs: Dict[int, AsyncEnvironment] = {}
        self.nodes: Dict[int, GossipNode] = {}
        self.registry = SignatureRegistry()
        #: Cluster-scoped serial counter (see des/cluster.py).
        self.msg_ids = MessageIdFactory()
        self.attackers: List[AttackerProcess] = []
        self._attacker_env: Optional[AsyncEnvironment] = None
        #: Stamped with the clock's ``time()`` in ms; :meth:`await_delivery`
        #: polls its per-message receiver sets.
        self.log = DeliveryLog(tracer)
        self.node_errors: List[Tuple[int, BaseException]] = []
        #: Every timer and in-flight datagram of the cluster, once started.
        self.clock: Optional[LoopClock] = None
        self._started_at: Optional[float] = None
        self._stopped = False

    @property
    def shaper(self) -> Optional[FaultyTransport]:
        """The fault layer on the send path, once a plan is installed."""
        return self._fault_transport

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Build environments, nodes, faults, and attacker, then start.

        Seed draw order (documented so seeded plans replay): transport
        loss → fault layer (only with a plan) → per node (environment,
        node) → attacker (only with an attack).
        """
        if self._stopped:
            raise RuntimeError("cluster already stopped")
        if self.clock is not None:
            raise RuntimeError("cluster already started")
        config = self.config
        loop = asyncio.get_running_loop()

        transport = self._given_transport
        if transport is None:
            if config.transport == "udp":
                transport = AioUdpBridge(
                    UdpTransport(
                        LossModel(config.loss, seed=self._seeds.next_seed())
                    )
                )
            else:
                transport = AioLoopbackTransport(
                    LossModel(config.loss, seed=self._seeds.next_seed())
                )
        ticks = getattr(transport, "_TICKS_PER_ROUND", 128)  # else as UDP
        clock = self.clock = LoopClock(loop, config.round_duration_ms / ticks)
        attach = getattr(transport, "attach", None)
        if attach is not None:
            attach(loop, clock)
        if config.faults is not None:
            transport = self._fault_transport = FaultyTransport(
                transport,
                config.faults,
                n=config.n,
                num_alive_correct=config.num_correct,
                round_duration_ms=config.round_duration_ms,
                seed=self._seeds.next_seed(),
                tracer=self.tracer,
            )
        self.transport = transport

        proto_cfg = config.protocol_config()
        members = list(range(config.n))
        for pid in config.correct_ids():
            env = AsyncEnvironment(
                transport,
                clock=clock,
                seed=self._seeds.next_seed(),
                on_error=lambda exc, pid=pid: self._record_node_error(
                    pid, exc
                ),
            )
            self.envs[pid] = env
            self.nodes[pid] = GossipNode(
                env,
                pid,
                proto_cfg,
                members,
                seed=self._seeds.next_seed(),
                on_deliver=self._record,
                registry=self.registry,
                id_factory=self.msg_ids,
            )
        # One shared key directory (learn_keys(copy=False)): per-node
        # copies would be n² dict entries at this scale.
        keys = {pid: node.keys.public for pid, node in self.nodes.items()}
        for node in self.nodes.values():
            node.learn_keys(keys, copy=False)

        if config.attack is not None:
            self._spawn_attacker(
                config.attack, seed=self._seeds.next_seed()
            )

        # run_start last: every seed position above is already consumed.
        if self.tracer is not None:
            self.tracer.run_start(
                "aio", continuous=True,
                protocol=config.protocol.value, n=config.n,
            )

        self._started_at = clock.time() * 1000.0
        for node in self.nodes.values():
            node.start()
        if self._fault_transport is not None:
            self._start_faults(self._fault_transport)
        for attacker in self.attackers:
            attacker.start()

    async def stop(self) -> None:
        """Tear down.  Idempotent; environments close even on failure."""
        if self._stopped:
            return
        self._stopped = True
        if self.clock is not None:  # what was due before the stop lands
            self.clock.catch_up()
        first_error: Optional[BaseException] = None
        for attacker in self.attackers:
            if attacker.running:
                attacker.stop()
        try:
            for node in self.nodes.values():
                try:
                    if node.running:
                        node.stop()
                except Exception as exc:
                    if first_error is None:
                        first_error = exc
        finally:
            for env in self.envs.values():
                env.close()
            if self._attacker_env is not None:
                self._attacker_env.close()
            if self.transport is not None:
                self.transport.close()
            if self.clock is not None:
                self.clock.close()
        if self.tracer is not None:
            self.tracer.run_end(delivered=len(self.log.deliveries))
        # Let cancelled callbacks drain before the loop is torn down.
        await asyncio.sleep(0)
        if first_error is not None:
            raise first_error

    # -- delivery log / watchdog ---------------------------------------------

    def _record_node_error(self, pid: int, exc: BaseException) -> None:
        self.node_errors.append((pid, exc))

    def _check_node_errors(self) -> None:
        if not self.node_errors:
            return
        pid, exc = self.node_errors[0]
        raise RuntimeError(
            f"{len(self.node_errors)} node callback error(s); first from "
            f"node {pid}: {exc!r}"
        ) from exc

    def _record(self, pid: int, message, now_ms: float) -> None:
        self.log.delivered(pid, message, self.clock.time() * 1000.0)

    # -- runtime injection (the service's control plane) ----------------------

    def inject_faults(self, plan: Union[FaultPlan, str]) -> None:
        """Apply a fault plan to a *running* cluster.

        Wraps the live transport in a
        :class:`~repro.faults.live.FaultyTransport` (fault round 1
        anchored now) and re-points every environment's sends through
        it; crash windows ride the cluster's clock.  One plan
        at a time — stack refinements by describing them in one spec.
        """
        if isinstance(plan, str):
            plan = FaultPlan.parse(plan)
        if plan.has_churn:
            from repro.api.engines import churn_refusal

            raise ValueError(churn_refusal("aio", plan))
        if plan.is_empty:
            return
        if self._fault_transport is not None:
            raise RuntimeError(
                "a fault plan is already installed; describe the whole "
                "condition in one spec"
            )
        if self.clock is None or self._stopped:
            raise RuntimeError("cluster is not running")
        config = self.config
        plan.validate_for(
            n=config.n,
            num_alive_correct=config.num_correct,
            max_rounds=10**9,
        )
        self.clock.catch_up()
        faulty = FaultyTransport(
            self.transport,
            plan,
            n=config.n,
            num_alive_correct=config.num_correct,
            round_duration_ms=config.round_duration_ms,
            seed=self._seeds.next_seed(),
            tracer=self.tracer,
        )
        self._fault_transport = faulty
        self.transport = faulty
        # Handlers stay bound on the inner transport; only the send
        # path needs re-pointing.
        for env in self.envs.values():
            env.transport = faulty
        if self._attacker_env is not None:
            self._attacker_env.transport = faulty
        self._start_faults(faulty)
        # The *post-injection* config carries the plan so result()
        # reports faults and reachability like a configured run.
        self.config = replace(config, faults=plan)

    def _start_faults(self, faulty: FaultyTransport) -> None:
        """Anchor fault round 1 now and put the crash windows on the clock."""
        faulty.start_clock()
        if faulty.schedule is not None:
            arm_flips(
                self.clock, faulty.schedule, self.nodes,
                self.config.round_duration_ms, self.tracer,
            )

    def inject_attack(self, spec: AttackSpec) -> AttackerProcess:
        """Start a DoS attacker against a running cluster."""
        if self.clock is None or self._stopped:
            raise RuntimeError("cluster is not running")
        self.clock.catch_up()
        attacker = self._spawn_attacker(spec, seed=self._seeds.next_seed())
        attacker.start()
        return attacker

    def _spawn_attacker(self, spec: AttackSpec, *, seed) -> AttackerProcess:
        if self._attacker_env is None:
            self._attacker_env = AsyncEnvironment(
                self.transport, clock=self.clock, seed=None
            )
        attacker = AttackerProcess(
            self._attacker_env,
            spec,
            self.config.protocol,
            list(range(spec.victim_count(self.config.n))),
            round_duration_ms=self.config.round_duration_ms,
            seed=seed,
        )
        self.attackers.append(attacker)
        return attacker

    # -- application API ------------------------------------------------------

    def multicast(self, source: int, payload: object) -> Tuple[int, int]:
        """Multicast ``payload`` from ``source`` and track deliveries."""
        self.clock.catch_up()
        stamp = self.clock.time() * 1000.0
        msg = self.nodes[source].multicast(payload)
        self.log.sent(source, msg.msg_id, stamp)
        return msg.msg_id

    async def await_delivery(
        self,
        msg_id: Tuple[int, int],
        *,
        fraction: float = 1.0,
        timeout_s: float = 30.0,
    ) -> bool:
        """Wait until ``fraction`` of correct processes delivered ``msg_id``.

        Raises :class:`RuntimeError` if any node callback has died —
        waiting out the timeout against a dead node would just report a
        bogus delivery failure.
        """
        receivers = set(self.config.correct_ids())
        needed = max(1, int(fraction * len(receivers)))
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while True:
            self.clock.catch_up()
            self._check_node_errors()
            got = self.log.receivers.get(msg_id, ())
            if len(got) >= needed:
                return True
            if loop.time() >= deadline:
                return False
            await asyncio.sleep(0.02)

    def delivered_counts(self) -> Dict[Tuple[int, int], int]:
        """Receivers reached per tracked message (status queries)."""
        self.clock.catch_up()
        return {mid: len(got) for mid, got in self.log.receivers.items()}

    def result(self, send_rate: float, messages_sent: int) -> MeasurementResult:
        """Package the delivery log as a :class:`MeasurementResult`."""
        if self._started_at is None:
            raise RuntimeError("cluster was never started")
        sources = {mid[0] for mid in self.log.created_at} or {0}
        receivers = [
            pid for pid in self.config.correct_ids() if pid not in sources
        ]
        reachable: Optional[List[int]] = None
        faults_desc: Optional[str] = None
        if self.config.faults is not None:
            faults_desc = self.config.faults.describe()
            schedule = self._fault_transport.schedule
            if schedule is not None:
                horizon = self._fault_transport.current_round()
                reachable_ids = schedule.reachable_ids(horizon)
                reachable = [
                    pid for pid in receivers if pid in reachable_ids
                ]
            else:
                reachable = list(receivers)
        return MeasurementResult(
            protocol=self.config.protocol.value,
            n=self.config.n,
            correct_receivers=receivers,
            send_rate=send_rate,
            messages_sent=messages_sent,
            experiment_start_ms=self._started_at,
            experiment_end_ms=self.clock.time() * 1000.0,
            deliveries=list(self.log.deliveries),
            reachable_receivers=reachable,
            faults=faults_desc,
        )


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
        await cluster.start()
        try:
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
