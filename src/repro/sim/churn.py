"""Dynamic membership for the exact engine (Section 10, object level).

The :class:`ChurnDirector` attaches to a
:class:`~repro.sim.engine.RoundSimulator` when the scenario's fault plan
carries churn tokens.  It runs the *real* membership machinery — one
:class:`~repro.crypto.ca.CertificationAuthority`, one
:class:`~repro.membership.dynamic.DynamicMembership` (with its local
:class:`~repro.membership.failure_detector.FailureDetector`) per correct
process — and disseminates CA-certified join/leave/expel events over the
protocol under test: an event is known only to the processes it has
reached along *realized, accepted* gossip contacts (the
``GossipProcess.on_contact`` hook), so join propagation itself competes
with the DoS flood for the bounded channels.

Model choices, shared with the deterministic aggregate in
:mod:`repro.faults.schedule` (the vectorised engines consume the
aggregate directly):

- **Sponsorship.** A join (or rejoin) enters the gossip stream at the
  joiner itself — it starts gossiping the moment it joins, initial view
  courtesy of the CA.  A leave or expulsion is announced by the source
  process (id 0, always present), standing in for the departing member's
  farewell multicast / the expelling authority.
- **Probes.** Section 10's responsiveness tests are modelled as one
  out-of-band probe per (process, known member) per round, answered
  exactly when the target is present and neither crashed nor stalled.
  Probes feed ``FailureDetector.heard_from`` at round end; verdicts
  (``check``) land at the top of the next round, so a member silent for
  :data:`~repro.faults.schedule.FD_TIMEOUT_ROUNDS` full rounds drops out
  of gossip views and is rehabilitated one round after it speaks again —
  byte-for-byte the aggregate ``FaultSchedule.suspected_at`` sequence.
- **Id layout.** Victim/joiner id selection is the seedless
  ``FaultSchedule`` resolution, so the realized membership timeline is
  identical across the exact, fast, and mega engines.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.crypto.ca import CertificationAuthority
from repro.crypto.keys import KeyPair
from repro.faults.schedule import FD_TIMEOUT_ROUNDS
from repro.membership.dynamic import DynamicMembership
from repro.membership.events import (
    ExpelEvent,
    JoinEvent,
    LeaveEvent,
    MembershipEvent,
)


class _EventFlight:
    """One membership event spreading through the group."""

    __slots__ = ("event", "fired_round", "aware", "converged_round")

    def __init__(self, event: MembershipEvent, fired_round: int, aware: Set[int]):
        self.event = event
        self.fired_round = fired_round
        self.aware = aware  # pids whose membership db has applied it
        self.converged_round: Optional[int] = None


class ChurnDirector:
    """Drives membership churn inside one :class:`RoundSimulator`."""

    def __init__(self, simulator, seeds):
        scenario = simulator.scenario
        schedule = simulator._schedule
        self.sim = simulator
        self.scenario = scenario
        self.schedule = schedule
        self.total_n = schedule.total_n
        # Pre-draw every joiner's process seed in id order, so the
        # engine's seed consumption is a pure function of the plan —
        # never of when (or whether) a joiner actually spawns.
        self.joiner_seeds = {
            pid: seeds.next_seed()
            for pid in range(scenario.n, schedule.total_n)
        }

        self.ca = CertificationAuthority(
            validity_period=float(scenario.max_rounds + 1000)
        )
        # Certify the whole initial group before any process bootstraps,
        # so every initial view is complete and serials are id-ordered.
        self._keys: Dict[int, KeyPair] = {}
        for pid in range(scenario.n):
            proc = simulator.processes.get(pid)
            keys = proc.keys if proc is not None else KeyPair(owner=pid)
            self._keys[pid] = keys
            self.ca.authorize_join(pid, keys.public)

        self.membership: Dict[int, DynamicMembership] = {}
        for pid, proc in simulator.processes.items():
            mem = DynamicMembership(
                pid, self.ca.public_key, failure_timeout=float(FD_TIMEOUT_ROUNDS)
            )
            for member in self.ca.initial_view(exclude=pid):
                cert = self.ca.current_certificate(member)
                if cert is not None:
                    mem.install_certificate(cert, 0.0)
            self.membership[pid] = mem
            proc.on_contact = self._on_contact

        #: Joiner processes, spawned at their join round (id -> process).
        self.joiners: Dict[int, object] = {}
        self._joiner_seen_delivered: Set[int] = set()
        self._join_round: Dict[int, int] = {}
        #: Ids (initial or joiner) that left or were expelled.
        self.departed: Set[int] = set()
        self._flights: List[_EventFlight] = []
        self._prev_suspects: Set[int] = set()
        self._update_candidates()

    # -- engine surface ------------------------------------------------------

    @property
    def min_rounds(self) -> int:
        """Rounds the run must simulate even past threshold coverage, so
        every scheduled event fires and has time to disseminate."""
        return self.schedule.last_event_round() + self.schedule.awareness_lag(
            self.scenario.fan_out
        )

    def active_joiners(self) -> List[object]:
        """Joiner processes participating this round."""
        return [
            proc
            for pid, proc in sorted(self.joiners.items())
            if pid not in self.departed
        ]

    def begin_round(self, round_no: int) -> None:
        """Fire scheduled events, settle FD verdicts, refresh views."""
        tr = self.sim._tracer
        self.ca.advance_clock(float(round_no))
        for kind, ids in self.schedule.churn_events_at(round_no):
            if kind == "join":
                self._fire_join(ids, round_no, tr)
            elif kind == "rejoin":
                self._fire_rejoin(ids, round_no, tr)
            elif kind == "leave":
                self._fire_leave(ids, round_no, tr)
            elif kind == "expel":
                self._fire_expel(ids, round_no, tr)
        self._settle_failure_detectors(round_no, tr)
        self._update_candidates()
        self._check_convergence(round_no)

    def end_round(self, round_no: int) -> None:
        """Run the responsiveness probes for the round just executed."""
        now = float(round_no)
        crashed = self.schedule.crashed_at(round_no)
        stalled = self.schedule.stalled_at(round_no)
        present = self.schedule.present_at(round_no)
        for pid, mem in self.membership.items():
            if pid in self.departed or pid in crashed:
                continue
            fd = mem.failure_detector
            for member in mem.current_members(now):
                if (
                    member in present
                    and member not in crashed
                    and member not in stalled
                    and (member < self.scenario.n or member in self.joiners)
                    and member not in self.departed
                ):
                    fd.heard_from(member, now)

    def emit_joiner_deliveries(self, tr, round_no: int) -> None:
        """Emit delivered events for joiners that got M this round."""
        for pid, proc in sorted(self.joiners.items()):
            if proc.has_message and pid not in self._joiner_seen_delivered:
                self._joiner_seen_delivered.add(pid)
                tr.delivered(node=pid, via="joiner")

    def holder(self, pid: int) -> bool:
        """Whether any process — initial or joiner — holds M."""
        proc = self.sim.processes.get(pid)
        if proc is None:
            proc = self.joiners.get(pid)
        return bool(proc is not None and proc.has_message)

    def finalize(self, horizon: int) -> dict:
        """The RunResult ``churn`` metrics block."""
        reachable = self.schedule.reachable_ids(horizon)
        latencies = []
        for pid, proc in sorted(self.joiners.items()):
            if pid not in reachable:
                continue
            if proc.delivery_round is not None:
                latencies.append(float(proc.delivery_round))
            else:
                latencies.append(float(horizon - self._join_round[pid]))
        convergence = [
            float(
                (f.converged_round if f.converged_round is not None else horizon)
                - f.fired_round
            )
            for f in self._flights
        ]
        return {
            "timeline": [dict(r) for r in self.schedule.churn_timeline()],
            "join_latency": (
                sum(latencies) / len(latencies) if latencies else None
            ),
            "view_convergence": (
                sum(convergence) / len(convergence) if convergence else None
            ),
            "joiner_holders": sum(
                1 for p in self.joiners.values() if p.has_message
            ),
            "joiner_count": len(self.joiners),
        }

    # -- event firing --------------------------------------------------------

    def _fire_join(self, ids, round_no: int, tr) -> None:
        config = self.scenario.protocol_config()
        members = list(range(self.total_n))
        for pid in sorted(ids):
            proc = self.sim._process_cls(
                pid,
                config,
                members,
                self.sim.network,
                seed=self.joiner_seeds[pid],
                has_message=False,
            )
            self._keys[pid] = proc.keys
            proc.learn_keys(
                {p: k.public for p, k in self._keys.items() if p != pid}
            )
            proc.on_contact = self._on_contact
            mem = DynamicMembership(
                pid,
                self.ca.public_key,
                failure_timeout=float(FD_TIMEOUT_ROUNDS),
            )
            cert = mem.join(self.ca, proc.keys.public, float(round_no))
            self.membership[pid] = mem
            self.joiners[pid] = proc
            self._join_round[pid] = round_no
            # The joiner announces itself: awareness spreads from here
            # along accepted gossip contacts only.
            self._flights.append(
                _EventFlight(JoinEvent(pid, cert), round_no, {pid})
            )
        if tr is not None:
            tr.member_join(sorted(ids))

    def _fire_rejoin(self, ids, round_no: int, tr) -> None:
        for pid in sorted(ids):
            self.departed.discard(pid)
            keys = self._keys[pid]
            cert = self.ca.authorize_join(pid, keys.public)
            mem = self.membership.get(pid)
            if mem is not None:
                mem.install_certificate(cert, float(round_no))
            self._flights.append(
                _EventFlight(JoinEvent(pid, cert), round_no, {pid})
            )
        if tr is not None:
            tr.member_join(sorted(ids))

    def _fire_leave(self, ids, round_no: int, tr) -> None:
        for pid in sorted(ids):
            cert = self.ca.revoke(pid)
            self.departed.add(pid)
            if cert is not None:
                # Announced by the source (the departing member is gone).
                self._flights.append(
                    _EventFlight(LeaveEvent(pid, cert), round_no, {0})
                )
                source_mem = self.membership.get(0)
                if source_mem is not None:
                    source_mem.handle_event(
                        LeaveEvent(pid, cert), float(round_no)
                    )
        if tr is not None:
            tr.member_leave(sorted(ids))

    def _fire_expel(self, ids, round_no: int, tr) -> None:
        for pid in sorted(ids):
            cert = self.ca.revoke(pid)
            self.departed.add(pid)
            if cert is not None:
                self._flights.append(
                    _EventFlight(ExpelEvent(pid, cert), round_no, {0})
                )
                source_mem = self.membership.get(0)
                if source_mem is not None:
                    source_mem.handle_event(
                        ExpelEvent(pid, cert), float(round_no)
                    )
        if tr is not None:
            tr.member_expel(sorted(ids))

    # -- dissemination -------------------------------------------------------

    def _on_contact(self, observer: int, peer: int) -> None:
        """An accepted inbound message at ``observer`` from ``peer``:
        implicit heartbeat plus event piggybacking (whatever ``peer``
        knows rides along)."""
        mem = self.membership.get(observer)
        if mem is None:
            return
        now = float(self.sim.round_no)
        mem.failure_detector.heard_from(peer, now)
        for flight in self._flights:
            if observer not in flight.aware and peer in flight.aware:
                flight.aware.add(observer)
                applied_mem = self.membership.get(observer)
                if applied_mem is not None:
                    applied_mem.handle_event(flight.event, now)
                    if isinstance(flight.event, JoinEvent):
                        subject = flight.event.subject
                        proc = self.sim.processes.get(
                            observer
                        ) or self.joiners.get(observer)
                        key = self._keys.get(subject)
                        if proc is not None and key is not None:
                            proc.peer_keys[subject] = key.public

    # -- failure detection and views -----------------------------------------

    def _settle_failure_detectors(self, round_no: int, tr) -> None:
        now = float(round_no)
        suspects: Set[int] = set()
        for pid, mem in self.membership.items():
            if pid in self.departed:
                continue
            mem.failure_detector.check(now)
            suspects |= mem.failure_detector.suspected
        if tr is not None:
            newly = suspects - self._prev_suspects
            cleared = self._prev_suspects - suspects
            if newly:
                tr.suspect(newly)
            if cleared:
                tr.rehabilitate(cleared)
        self._prev_suspects = suspects

    def _update_candidates(self) -> None:
        """Refresh every active process's gossip target pool from its
        membership database (certified and not suspected)."""
        now = float(self.sim.round_no)
        for pid, mem in self.membership.items():
            if pid in self.departed:
                continue
            proc = self.sim.processes.get(pid) or self.joiners.get(pid)
            if proc is not None:
                proc.set_gossip_candidates(mem.gossip_candidates(now))

    def _check_convergence(self, round_no: int) -> None:
        """Record, per event, the round every active correct process's
        view reflects it."""
        crashed = self.schedule.crashed_at(round_no)
        correct_active = {
            pid
            for pid in self.membership
            if pid not in self.departed and pid not in crashed
        }
        for flight in self._flights:
            if flight.converged_round is None and correct_active <= flight.aware:
                flight.converged_round = round_no
