"""The cluster host and the DES experiment drivers (Section 8).

:class:`_Cluster` is the one cluster host — nodes, keys, attackers,
network, fault wiring and delivery log — on the virtual clock here and,
as :class:`~repro.aio.cluster.AioCluster`, on the wall clock.  Both run
one network: a node :class:`~repro.des.environment.Environment` per
process over one link (:class:`~repro.faults.live.FaultyTransport`)
round a loopback transport; only the clock differs.  Membership is an
input — a static group is ``GossipNode``\\ s over ``range(n)``; a plan
with churn tokens builds CA-certified
:class:`~repro.des.churn.MemberNode`\\ s and fires each
join/leave/expel at its fault-clock round boundary, every membership
event riding the protocol under test (Section 10).

Two experiment shapes:

- **Throughput streams** (Figures 10–11): a single source multicasts a
  stream of messages at a fixed rate; every correct process measures its
  received throughput (with 5 % warm-up/cool-down trimming) and its
  delivery latencies.  Messages purge after ``purge_rounds`` rounds, so
  an attacked, slowed protocol visibly *loses* messages.
- **Single-message propagation** (Figure 9): every process continuously
  multicasts background traffic; the source then multicasts one tagged
  message whose hop counter each receiver logs, giving propagation time
  in rounds that is directly comparable to the round-based simulations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.adversary.attacks import AttackSpec
from repro.core.config import ProtocolConfig, ProtocolKind
from repro.core.message import MessageIdFactory
from repro.crypto.ca import CertificationAuthority
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import SignatureRegistry
from repro.des.attacker import AttackerProcess
from repro.des.churn import MemberNode, churn_metrics
from repro.des.engine import EventLoop
from repro.des.environment import Environment, LoopbackTransport
from repro.des.measurement import DeliveryLog, MeasurementResult
from repro.des.node import GossipNode
from repro.faults.live import FaultyTransport, arm_flips
from repro.faults.plan import FaultPlan
from repro.faults.schedule import FD_TIMEOUT_ROUNDS, FaultSchedule
from repro.membership.events import ExpelEvent
from repro.util import SeedSequenceFactory, check_fraction, check_probability
from repro.util.rng import SeedLike


@dataclass(frozen=True)
class GroupConfig:
    """The group every cluster host lays out: shared fields, their
    validation, and the id layout.

    :class:`ClusterConfig` (virtual clock) and
    :class:`~repro.aio.cluster.AioClusterConfig` (wall clock) extend it
    with their own fields and defaults; the defaults here mirror
    Section 8.
    """

    protocol: Union[ProtocolKind, str] = ProtocolKind.DRUM
    n: int = 50
    malicious_fraction: float = 0.1
    attack: Optional[AttackSpec] = None
    fan_out: int = 4
    loss: float = 0.01
    round_duration_ms: float = 1000.0
    round_jitter: float = 0.1
    purge_rounds: int = 10
    max_sends_per_partner: int = 80
    #: Source send rate in messages per second (the paper uses 40).
    send_rate: float = 40.0
    #: Stream length; the paper sends 10,000 — the default here keeps a
    #: full benchmark sweep to minutes, and scales linearly.
    messages: int = 400
    #: Injected faults (see :mod:`repro.faults`): the same plans the
    #: round engines run, with round windows anchored to the global
    #: fault clock (round r = [(r-1)·round_duration_ms, r·round_ms)).
    #: Accepts a :class:`FaultPlan` or a CLI spec string.
    faults: Optional[Union[FaultPlan, str]] = None

    def __post_init__(self) -> None:
        if isinstance(self.protocol, str):
            object.__setattr__(self, "protocol", ProtocolKind(self.protocol))
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        check_fraction("malicious_fraction", self.malicious_fraction, allow_zero=True)
        check_probability("loss", self.loss)
        if self.send_rate <= 0:
            raise ValueError(f"send_rate must be > 0, got {self.send_rate}")
        if self.messages < 1:
            raise ValueError(f"messages must be >= 1, got {self.messages}")
        if self.attack is not None:
            victims = self.attack.victim_count(self.n)
            if not 1 <= victims <= self.num_correct:
                raise ValueError(
                    f"attack targets {victims} processes; only "
                    f"{self.num_correct} are correct"
                )
        if isinstance(self.faults, str):
            object.__setattr__(self, "faults", FaultPlan.parse(self.faults))
        if self.faults is not None:
            if not isinstance(self.faults, FaultPlan):
                raise TypeError(
                    f"faults must be a FaultPlan or spec string, got "
                    f"{self.faults!r}"
                )
            if self.faults.is_empty:
                object.__setattr__(self, "faults", None)
            else:
                # Cluster experiments have no fixed round horizon; event
                # start rounds are validated against group size only.
                self.faults.validate_for(
                    n=self.n,
                    num_alive_correct=self.num_correct,
                    max_rounds=10**9,
                )

    # -- group layout (mirrors repro.sim.scenario.Scenario) -------------------

    @property
    def num_malicious(self) -> int:
        return int(round(self.malicious_fraction * self.n))

    @property
    def num_correct(self) -> int:
        return self.n - self.num_malicious

    @property
    def source(self) -> int:
        return 0

    def correct_ids(self) -> List[int]:
        return list(range(self.num_correct))

    def attacked_ids(self) -> List[int]:
        if self.attack is None:
            return []
        return list(range(self.attack.victim_count(self.n)))

    def receiver_ids(self) -> List[int]:
        """Correct processes excluding the source — where the paper
        measures throughput and latency."""
        return [pid for pid in self.correct_ids() if pid != self.source]

    def protocol_config(self) -> ProtocolConfig:
        return ProtocolConfig(
            kind=self.protocol,
            fan_out=self.fan_out,
            purge_rounds=self.purge_rounds,
            max_sends_per_partner=self.max_sends_per_partner,
            round_duration_ms=self.round_duration_ms,
            round_jitter=self.round_jitter,
        )

    def with_(self, **changes):
        return replace(self, **changes)


@dataclass(frozen=True)
class ClusterConfig(GroupConfig):
    """One measured-cluster configuration (defaults mirror Section 8).

    .. note:: Direct construction is the legacy entry point for
       *running* experiments; prefer :class:`repro.api.Experiment` with
       ``.run(engine="des")``.  ``ClusterConfig`` remains fully
       supported as the DES stack's native config object.
    """

    latency_range_ms: Tuple[float, float] = (0.5, 2.0)
    warmup_rounds: int = 3
    #: Background multicasts per node per round in single-message mode
    #: ("all the processes have messages to send").  A modest default
    #: keeps every buffer and digest non-trivially populated without
    #: drowning the discrete-event run in background data exchange.
    background_rate: float = 0.25


class _Cluster:
    """The one cluster host: nodes, keys, attackers, faults, delivery log.

    Both clocks run this build.  Seed draw order (seeded runs replay
    it): network → correct ids → joiner ids (churn only) → attackers
    (only with an attack) → faults (only with a plan).  A static group
    builds no CA and schedules no probe, so its heap sequence is that
    of a cluster without churn support.

    The network is one link, :attr:`transport` (a
    :class:`~repro.faults.live.FaultyTransport` drawing on the network
    seed), and one :class:`~repro.des.environment.Environment` per
    process on it.  A stack supplies only its clock and what the link
    wraps — :meth:`_build_network`, here the virtual
    :class:`~repro.des.engine.EventLoop` and a loopback transport — and
    :meth:`_stamp`.
    """

    #: The stack named in ``run_start``.
    stack = "des"

    def __init__(
        self, config: ClusterConfig, seed: SeedLike = None, *, tracer=None
    ):
        self._setup(config, seed, tracer)
        self._build()

    def _setup(self, config: GroupConfig, seed: SeedLike, tracer) -> None:
        """The host's state that needs neither a clock nor a seed."""
        self.config = config
        # Observability: a repro.obs Tracer or None.  Events are
        # continuous-time, stamped with ``t`` (ms); the tracer draws no
        # randomness, so traced and untraced runs are identical.
        self.tracer = tracer
        self.round_ms = float(config.round_duration_ms)
        self._seeds = SeedSequenceFactory(seed)
        self.log = DeliveryLog(tracer)
        #: Per-message buffer-lifetime overrides, honoured by every node
        #: (a tracked message can outlive normal purging everywhere);
        #: ``_pending_ttl`` covers the source's own copy, buffered
        #: inside ``multicast`` before its id is known.
        self.ttl_overrides: Dict[Tuple[int, int], int] = {}
        self._pending_ttl: Optional[int] = None
        #: One signature trust domain per cluster: the bindings die with
        #: the run instead of accumulating in the module-level registry.
        self.registry = SignatureRegistry()
        #: Serial counter scoped to this cluster: repeated seeded runs
        #: mint identical message ids, so envelopes compare byte-equal.
        self.msg_ids = MessageIdFactory()
        #: The installed plan resolved against the group (seedless).
        self.schedule: Optional[FaultSchedule] = None
        if config.faults is not None:
            self.schedule = FaultSchedule(
                config.faults, n=config.n, num_alive_correct=config.num_correct
            )
        self.churn = self.schedule is not None and self.schedule.has_churn
        self.proto_cfg = config.protocol_config()
        self.nodes: Dict[int, Union[GossipNode, MemberNode]] = {}
        #: Members that left or were expelled (churn): a rejoin reuses them.
        self.departed: Dict[int, MemberNode] = {}
        self.attackers: List[AttackerProcess] = []
        #: Exceptions escaping node callbacks, as (pid, exception).
        self.node_errors: List[Tuple[int, BaseException]] = []

    def _build(self) -> None:
        """Network, nodes, keys, attackers and faults, in seed order."""
        config, seeds, tracer = self.config, self._seeds, self.tracer
        inner, latency_range_ms = self._build_network()
        #: The one link every process sends through.
        self.transport = FaultyTransport(
            inner,
            round_duration_ms=config.round_duration_ms,
            seed=seeds.next_seed(),
            tracer=tracer,
            loss=config.loss,
            latency_range_ms=latency_range_ms,
        )
        # Seeds are pre-drawn in id order for the full id universe, so a
        # node's RNG stream depends only on its id — not on when the
        # event loop happens to construct it.
        self._node_seeds = {
            pid: seeds.next_seed() for pid in config.correct_ids()
        }
        if self.churn:
            for _, _, first, count in self.schedule.join_blocks():
                for pid in range(first, first + count):
                    self._node_seeds[pid] = seeds.next_seed()
            self._build_membership()
        else:
            members = list(range(config.n))
            for pid in config.correct_ids():
                self.nodes[pid] = GossipNode(
                    self._env_for(pid), pid, self.proto_cfg, members,
                    **self._node_kwargs(pid),
                )
        self._share_keys()
        if config.attack is not None:
            self._spawn_attacker(config.attack, seeds.next_seed())
        # Fault wiring comes last, and its seed draw only happens when a
        # plan is present — faultless seeded clusters replay their
        # historical streams exactly.
        if self.schedule is not None:
            self._install_faults(self.schedule, seeds.next_seed())
        if self.churn:
            self._schedule_churn_ops()
            self.clock.schedule(self.round_ms, self._probe)

        # run_start last: every seed position above is already consumed.
        if tracer is not None:
            extra = (
                {"churn": True, "total_n": self.schedule.total_n}
                if self.churn else {}
            )
            tracer.run_start(
                self.stack, continuous=True,
                protocol=config.protocol.value, n=config.n, **extra,
            )

    # -- what a stack supplies -----------------------------------------------

    def _build_network(self) -> Tuple[LoopbackTransport, Tuple[float, float]]:
        """Set :attr:`clock`; return what the link wraps and its base
        latency range (ms)."""
        self.clock = EventLoop()
        return LoopbackTransport(self.clock), self.config.latency_range_ms

    def _stamp(self) -> float:
        """Now, as the delivery log records it (ms)."""
        return self.clock.now

    # -- construction --------------------------------------------------------

    def _env_for(self, pid: Optional[int]) -> Environment:
        """The environment of node ``pid`` (None: an attacker).  Where
        the clock catches a callback's exception, it is recorded against
        the node in :attr:`node_errors` instead."""
        on_error = (
            functools.partial(self._record_node_error, pid)
            if self.clock.catches_errors and pid is not None else None
        )
        return Environment(self.transport, clock=self.clock, on_error=on_error)

    def _record_node_error(self, pid: int, exc: BaseException) -> None:
        self.node_errors.append((pid, exc))

    def _node_kwargs(self, pid: int) -> dict:
        return dict(
            seed=self._node_seeds[pid],
            on_deliver=self._record,
            ttl_policy=self._ttl_for,
            registry=self.registry,
            id_factory=self.msg_ids,
        )

    def _record(self, pid: int, message, now_ms: float) -> None:
        self.log.delivered(pid, message, self._stamp())

    def _ttl_for(self, message) -> Optional[int]:
        return self.ttl_overrides.get(message.msg_id, self._pending_ttl)

    def _share_keys(self) -> None:
        """One key directory, shared by every node (no node writes it)."""
        keys = {pid: node.keys.public for pid, node in self.nodes.items()}
        for node in self.nodes.values():
            node.learn_keys(keys)

    def _spawn_attacker(self, spec: AttackSpec, seed) -> AttackerProcess:
        config = self.config
        attacker = AttackerProcess(
            self._env_for(None), spec, config.protocol,
            list(range(spec.victim_count(config.n))),
            round_duration_ms=config.round_duration_ms, seed=seed,
        )
        self.attackers.append(attacker)
        return attacker

    def _install_faults(self, schedule: FaultSchedule, seed) -> None:
        """The one install path for a plan, configured or injected: fault
        round 1 starts now, and crash windows go on the clock."""
        self.schedule = schedule
        self.transport.install(schedule, seed)
        arm_flips(self.clock, schedule, self.nodes, self.round_ms, self.tracer)

    def _build_membership(self) -> None:
        """Certified members for the initial correct ids, bootstrapped
        with every certificate of the group."""
        config = self.config
        #: Certificates must outlive the run: scheduled churn is the only
        #: membership change under test (expiry is exercised separately).
        self.ca = CertificationAuthority(validity_period=1e9)
        self.joined: List[int] = []
        self.left: List[int] = []
        self.expelled: List[int] = []
        #: (kind, subject) -> the most recent announcement of that event
        #: ({"t_fire", "expected", "applied"}: view convergence).
        self._announce_latest: Dict[Tuple[str, int], Dict[str, object]] = {}
        self.announcements: List[Dict[str, object]] = []
        for pid in config.correct_ids():
            member = self.nodes[pid] = self._build_member(pid)
            member.join_group()
        # Malicious ids hold certificates too (the CA cannot tell — that
        # is the paper's threat model); they never answer, so the local
        # failure detectors age them out of gossip views.
        for pid in range(config.num_correct, config.n):
            self.ca.authorize_join(pid, KeyPair(owner=pid).public)
        for member in self.nodes.values():
            for pid in range(config.n):
                if pid == member.pid:
                    continue
                cert = self.ca.current_certificate(pid)
                if cert is not None:
                    member.membership.install_certificate(cert, now=0.0)
            member._refresh_views()

    def _build_member(self, pid: int) -> MemberNode:
        return MemberNode(
            self._env_for(pid), pid, self.proto_cfg, self.ca,
            on_membership=self._on_membership,
            failure_timeout_rounds=float(FD_TIMEOUT_ROUNDS),
            **self._node_kwargs(pid),
        )

    # -- scheduled membership ops --------------------------------------------

    def _schedule_churn_ops(self) -> None:
        """Fire every resolved membership event at its round boundary."""

        def at(round_no: int, op, ids: List[int]) -> None:
            self.clock.schedule((round_no - 1) * self.round_ms, op, ids)

        for start, stop, first, count in self.schedule.join_blocks():
            ids = list(range(first, first + count))
            at(start, self._join, ids)
            if stop is not None:
                at(stop, self._leave, ids)
        for start, stop, ids in self.schedule._leave_windows:
            at(start, self._leave, sorted(ids))
            if stop is not None:
                # A rejoin is a fresh log-in: new certificate, new event.
                at(stop, self._join, sorted(ids))
        for start, ids in self.schedule._expel_events:
            at(start, self._expel, sorted(ids))

    def _announce(self, kind: str, event, subject: int) -> None:
        """Multicast a membership event from the lowest running member
        and open its convergence record."""
        sponsor = next(
            (
                pid for pid in sorted(self.nodes)
                if pid != subject and self.nodes[pid].running
            ),
            None,
        )
        if sponsor is None:
            return
        record = {
            "kind": kind,
            "subject": subject,
            "t_fire": self.clock.now,
            "expected": frozenset(
                pid for pid, member in self.nodes.items()
                if member.running and pid != subject
            ),
            "applied": {},
        }
        self._announce_latest[(kind, subject)] = record
        self.announcements.append(record)
        self.nodes[sponsor].multicast(event)

    def _join(self, ids: List[int]) -> None:
        for pid in ids:
            member = self.departed.pop(pid, None) or self._build_member(pid)
            event = member.join_group()
            self.nodes[pid] = member
            self.joined.append(pid)
            member.start()
            self._share_keys()
            self._announce("join", event, pid)
        if self.tracer is not None:
            self.tracer.member_join(ids, t=self.clock.now)

    def _leave(self, ids: List[int]) -> None:
        departed = []
        for pid in ids:
            member = self.nodes.pop(pid, None)
            if member is None:
                continue
            event = member.leave_group()
            self.departed[pid] = member
            self.left.append(pid)
            departed.append(pid)
            if event is not None:
                self._announce("leave", event, pid)
        if self.tracer is not None and departed:
            self.tracer.member_leave(departed, t=self.clock.now)

    def _expel(self, ids: List[int]) -> None:
        for pid in ids:
            cert = self.ca.revoke(pid)
            member = self.nodes.pop(pid, None)
            if member is not None:
                member.stop()
                self.departed[pid] = member
            self.expelled.append(pid)
            if cert is not None:
                self._announce("expel", ExpelEvent(pid, cert), pid)
        if self.tracer is not None and ids:
            self.tracer.member_expel(ids, t=self.clock.now)

    def _on_membership(self, pid: int, event, now: float) -> None:
        kind = {
            "JoinEvent": "join",
            "LeaveEvent": "leave",
            "ExpelEvent": "expel",
        }.get(type(event).__name__)
        if kind is None:
            return
        record = self._announce_latest.get((kind, event.subject))
        if record is not None and pid not in record["applied"]:
            record["applied"][pid] = now

    def _probe(self) -> None:
        """Every member probes its certified peers (Section 10's
        responsiveness probe).

        A present, running peer answers unless the fault schedule blocks
        the pair (crash, stall, partition); silence beyond the detector
        timeout turns into suspicion, removing the peer from gossip
        views without touching its membership status — and one answered
        probe rehabilitates it.
        """
        now_s = self.clock.now / 1000.0
        round_no = self.transport.current_round()
        for pid, member in self.nodes.items():
            if not member.running:
                continue
            detector = member.membership.failure_detector
            before = detector.suspected
            for peer in member.membership.current_members(now_s):
                target = self.nodes.get(peer)
                if target is None or not target.running:
                    continue
                if self.schedule.blocks(round_no, pid, peer) or (
                    self.schedule.blocks(round_no, peer, pid)
                ):
                    continue
                detector.heard_from(peer, now_s)
            newly = detector.check(now_s)
            if self.tracer is not None:
                if newly:
                    self.tracer.suspect(newly, t=self.clock.now, by=pid)
                healed = sorted(before - detector.suspected)
                if healed:
                    self.tracer.rehabilitate(healed, t=self.clock.now, by=pid)
            member._refresh_views()
        # The delay is the absolute next-round time, so probes fire at
        # R, 3R, 7R, ... — the seeded churn envelopes record this cadence.
        self.clock.schedule(self.clock.now + self.round_ms, self._probe)

    # -- lifecycle, the tracked stream and its measurement --------------------

    def start(self) -> None:
        for node in self.nodes.values():
            node.start()
        for attacker in self.attackers:
            attacker.start()

    def stop(self) -> None:
        for node in [*self.nodes.values(), *self.departed.values()]:
            if node.running:
                node.stop()
        for attacker in self.attackers:
            attacker.stop()

    def multicast_tracked(
        self, pid: int, payload: object, *, ttl: Optional[int] = None
    ) -> Optional[Tuple[int, int]]:
        """Multicast from ``pid`` and track its deliveries; ``ttl`` lets
        this one message outlive normal purging at every node.  Returns
        None when ``pid`` is absent or down this instant: the send is
        lost."""
        node = self.nodes.get(pid)
        if node is None or not node.running:
            return None
        created = self._stamp()
        self._pending_ttl = ttl
        try:
            msg = node.multicast(payload)
        finally:
            self._pending_ttl = None
        if ttl is not None:
            self.ttl_overrides[msg.msg_id] = ttl
        self.log.sent(pid, msg.msg_id, created)
        return msg.msg_id

    def measurement(
        self,
        send_rate: float,
        messages_sent: int,
        start_ms: float,
        end_ms: float,
        *,
        horizon_ms: float,
    ) -> MeasurementResult:
        """Package the delivery log.  Receivers are the correct ids that
        sent no tracked message; under a plan, reachability is read at
        ``horizon_ms`` on :attr:`clock`, and a churn run carries its
        ``churn`` payload (:func:`~repro.des.churn.churn_metrics`)."""
        config = self.config
        sources = {mid[0] for mid in self.log.created_at} or {config.source}
        receivers = [
            pid for pid in config.correct_ids() if pid not in sources
        ]
        reachable = faults = churn = None
        if self.schedule is not None:
            faults = self.schedule.plan.describe()
            ids = self.schedule.reachable_ids(
                self.transport.current_round(horizon_ms)
            )
            reachable = [pid for pid in receivers if pid in ids]
            if self.churn:
                churn = churn_metrics(self, horizon_ms, ids)
        return MeasurementResult(
            protocol=config.protocol.value,
            n=config.n,
            correct_receivers=receivers,
            send_rate=send_rate,
            messages_sent=messages_sent,
            experiment_start_ms=start_ms,
            experiment_end_ms=end_ms,
            deliveries=list(self.log.deliveries),
            reachable_receivers=reachable,
            faults=faults,
            churn=churn,
        )


def run_throughput_experiment(
    config: ClusterConfig, *, seed: SeedLike = None, tracer=None
) -> MeasurementResult:
    """Stream ``config.messages`` from the source and measure reception.

    With churn tokens in the plan the run lasts at least until the
    last membership event has had time to spread, and the result
    carries the ``churn`` payload (:func:`~repro.des.churn.churn_metrics`).
    """
    cluster = _Cluster(config, seed, tracer=tracer)
    cluster.start()
    round_ms = cluster.round_ms

    t0 = config.warmup_rounds * config.round_duration_ms
    if cluster.churn:
        t0 = float(t0)  # churn envelopes have always stamped a float start
    interval = 1000.0 / config.send_rate
    for i in range(config.messages):
        cluster.clock.schedule(
            t0 + i * interval,
            cluster.multicast_tracked, config.source, f"msg-{i}".encode(),
        )

    t_send_end = t0 + config.messages * interval
    horizon_ms = t_send_end + (config.purge_rounds + 3) * round_ms
    if cluster.churn:
        schedule = cluster.schedule
        lag = schedule.awareness_lag(config.fan_out)
        settle = (schedule.last_event_round() + lag + 2) * round_ms
        horizon_ms = max(horizon_ms, settle)
    cluster.clock.run_until(horizon_ms)
    cluster.stop()
    result = cluster.measurement(
        config.send_rate, config.messages, t0, t_send_end,
        horizon_ms=horizon_ms,
    )
    if tracer is not None:
        churn = result.churn
        counts = (
            {k: churn[k] for k in ("joined", "left", "expelled")}
            if churn is not None else {}
        )
        tracer.run_end(
            t=horizon_ms,
            delivered=len(result.deliveries),
            messages=config.messages,
            **counts,
        )
    return result


def run_single_message_experiment(
    config: ClusterConfig,
    runs: int,
    *,
    seed: SeedLike = None,
    fraction: float = 0.99,
    horizon_rounds: int = 40,
) -> np.ndarray:
    """Per-run propagation time (in rounds) of one tagged message.

    Matches the Figure 9 methodology: background traffic keeps every
    buffer busy, the source multicasts one tagged message, every correct
    receiver logs its hop counter, and the run's result is the counter
    by which ``fraction`` of the correct processes had logged it.  The
    tagged message gets a per-message TTL covering the whole horizon
    (the simulation assumption that M is never purged) while background
    traffic purges normally.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    results = []
    seeds = SeedSequenceFactory(seed)
    for _ in range(runs):
        cluster = _Cluster(config, seeds.next_seed())
        cluster.start()

        # Background multicasts: every node keeps its buffer non-empty.
        if config.background_rate > 0:
            bg_interval = config.round_duration_ms / config.background_rate
            horizon_ms = (
                config.warmup_rounds + horizon_rounds
            ) * config.round_duration_ms
            for pid, node in cluster.nodes.items():
                when = float(cluster.transport.rng.uniform(0, bg_interval))
                k = 0
                while when < horizon_ms:
                    def _bg(node=node, k=k) -> None:
                        if node.running:
                            node.multicast(f"bg-{node.pid}-{k}".encode())

                    cluster.clock.schedule(when, _bg)
                    when += bg_interval
                    k += 1

        t_inject = config.warmup_rounds * config.round_duration_ms
        tracked: Dict[str, Tuple[int, int]] = {}

        def _inject() -> None:
            tracked["id"] = cluster.multicast_tracked(
                config.source, b"tracked-message", ttl=horizon_rounds + 5
            )

        cluster.clock.schedule(t_inject, _inject)
        t_end = t_inject + horizon_rounds * config.round_duration_ms
        cluster.clock.run_until(t_end)
        cluster.stop()

        result = cluster.measurement(
            0.0, 1, t_inject, cluster.clock.now, horizon_ms=t_end
        )
        results.append(result.propagation_rounds(tracked["id"], fraction))
    return np.asarray(results)
