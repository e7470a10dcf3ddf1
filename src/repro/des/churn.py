"""Dynamic membership over Drum, end to end (Section 10).

Integrates :class:`~repro.membership.dynamic.DynamicMembership` with the
full-protocol node: membership events (join / leave / expel) are
disseminated *as multicast payloads over the gossip protocol itself*,
exactly as the paper prescribes — "the dynamic membership protocol
operates using Drum's multicast protocol as its transport layer", so it
inherits Drum's DoS-resistance.

:class:`MemberNode` wraps a :class:`~repro.des.node.GossipNode` with a
membership service: delivered membership events update the local
database (after certificate validation), and each round's gossip views
are drawn from the *currently certified, responsive* members.

Membership is an input to the one DES host: a plan with churn tokens
makes :class:`~repro.des.cluster._Cluster` build ``MemberNode``\\ s, a CA
and the per-round probe, and fire each join/leave/expel at its
fault-clock round boundary — the seedless
:class:`~repro.faults.schedule.FaultSchedule` every other stack
resolves, so ``join@5:0.2; leave@12:0.1`` means the *same membership
timeline* here as on the exact, fast, and mega engines.
:func:`churn_metrics` turns such a run into the measurement's ``churn``
payload.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.core.config import ProtocolConfig
from repro.crypto.ca import CertificationAuthority
from repro.des.environment import Environment
from repro.des.node import GossipNode
from repro.membership.dynamic import DynamicMembership
from repro.membership.events import JoinEvent, LeaveEvent, MembershipEvent


class MemberNode:
    """A gossip node whose membership view is CA-certified and dynamic."""

    def __init__(
        self,
        env: Environment,
        pid: int,
        config: ProtocolConfig,
        ca: CertificationAuthority,
        *,
        on_deliver=None,
        on_membership=None,
        failure_timeout_rounds: float = 10.0,
        **node_kwargs,
    ):
        """``node_kwargs`` (``seed``, ``registry``, ``id_factory``,
        ``ttl_policy``) go to the wrapped :class:`GossipNode`."""
        self.env = env
        self.pid = pid
        self.ca = ca
        self._app_deliver = on_deliver
        #: Called as ``(pid, event, now_ms)`` after a membership event is
        #: validated and applied locally (view-convergence measurement).
        self._on_membership = on_membership
        self.node = GossipNode(
            env, pid, config, members=[], on_deliver=self._deliver,
            **node_kwargs,
        )
        self.membership = DynamicMembership(
            pid,
            ca.public_key,
            failure_timeout=(
                config.round_duration_ms * failure_timeout_rounds / 1000.0
            ),
        )
        self.certificate = None
        self.events_applied = 0

    @property
    def running(self) -> bool:
        """Whether the underlying gossip node is running (crash flips
        read this)."""
        return self.node.running

    @property
    def keys(self):
        return self.node.keys

    def learn_keys(self, keys) -> None:
        self.node.learn_keys(keys)

    # -- lifecycle -----------------------------------------------------------

    def join_group(self) -> JoinEvent:
        """Obtain a certificate and the initial view; returns the join
        event the admitting member should multicast."""
        self.ca.advance_clock(max(self.ca.now, self.env.now() / 1000.0))
        self.certificate = self.membership.join(
            self.ca, self.node.keys.public, now=self.env.now() / 1000.0
        )
        self._refresh_views()
        return JoinEvent(self.pid, self.certificate)

    def leave_group(self) -> Optional[LeaveEvent]:
        """Log out: revoke at the CA and stop gossiping."""
        cert = self.ca.revoke(self.pid)
        self.node.stop()
        if cert is None:
            return None
        return LeaveEvent(self.pid, cert)

    def start(self) -> None:
        self.node.start()

    def stop(self) -> None:
        self.node.stop()

    # -- membership plumbing ----------------------------------------------------

    def _deliver(self, pid: int, message, now: float) -> None:
        payload = message.payload
        if isinstance(payload, MembershipEvent):
            if self.membership.handle_event(payload, now / 1000.0):
                self.events_applied += 1
                self._refresh_views()
                if self._on_membership is not None:
                    self._on_membership(pid, payload, now)
            return
        if self._app_deliver is not None:
            self._app_deliver(pid, message, now)

    def _refresh_views(self) -> None:
        """Point the gossip node at the current certified membership."""
        members = self.membership.gossip_candidates(self.env.now() / 1000.0)
        self.node.members = sorted(set(members) | {self.pid})

    def multicast(self, payload: object):
        """Multicast arbitrary payload (data or a membership event)."""
        self._refresh_views()
        return self.node.multicast(payload)

    def known_members(self) -> List[int]:
        return self.membership.current_members(self.env.now() / 1000.0)


def churn_metrics(cluster, horizon_ms: float, reachable_ids) -> Dict[str, object]:
    """The ``churn`` payload of a finished churn run of ``cluster``.

    Join latency: joiner-local rounds from the join boundary to the
    first stream delivery, starting at 1 (the cross-stack convention);
    joiners absent or unreachable at the horizon are censored out.
    View convergence: rounds until 90 % of the members present at an
    announcement applied its event (censored at the horizon).
    """
    schedule = cluster.schedule
    round_ms = float(cluster.config.round_duration_ms)
    # Where the clock's 0 and fault round 1 lie in delivery stamps: 0
    # on the virtual clock, loop time on the wall clock.
    offset = cluster._stamp() - cluster.clock.now
    origin = offset + cluster.transport.origin_ms
    join_round = {}
    for at, _stop, first, count in schedule.join_blocks():
        for pid in range(first, first + count):
            join_round[pid] = at
    first_delivery: Dict[int, float] = {}
    for record in cluster.log.deliveries:
        if record.receiver in join_round:
            t = first_delivery.get(record.receiver)
            if t is None or record.delivered_at_ms < t:
                first_delivery[record.receiver] = record.delivered_at_ms
    latencies = []
    for pid in sorted(join_round):
        if pid not in reachable_ids:
            continue
        t_join = origin + (join_round[pid] - 1) * round_ms
        t_first = first_delivery.get(pid, offset + horizon_ms)
        latencies.append(
            max(1.0, math.floor((t_first - t_join) / round_ms) + 1.0)
        )

    convergence = []
    for record in cluster.announcements:
        expected = record["expected"]
        if not expected:
            continue
        need = max(1, math.ceil(0.9 * len(expected)))
        applied = sorted(
            t for pid, t in record["applied"].items() if pid in expected
        )
        t_done = applied[need - 1] if len(applied) >= need else horizon_ms
        convergence.append(
            max(1.0, math.ceil((t_done - record["t_fire"]) / round_ms))
        )

    members = list(cluster.nodes.values()) + list(cluster.departed.values())
    return {
        "timeline": [dict(rec) for rec in schedule.churn_timeline()],
        "join_latency": (
            float(sum(latencies) / len(latencies)) if latencies else None
        ),
        "view_convergence": (
            float(sum(convergence) / len(convergence))
            if convergence else None
        ),
        "joined": len(cluster.joined),
        "left": len(cluster.left),
        "expelled": len(cluster.expelled),
        "events_applied": sum(m.events_applied for m in members),
    }
