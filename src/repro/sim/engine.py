"""The exact object-level round simulator.

Runs real :class:`~repro.core.protocol.GossipProcess` instances over a
:class:`~repro.net.network.Network`: every packet, port, sealed envelope,
and bounded channel actually exists.  This engine is the semantic
reference — the vectorised engine in :mod:`repro.sim.fast` is validated
against it — and the right tool for small-n studies and tests.

Round structure (synchronised across processes, as in the paper's
simulations):

1. every process snapshots its state and draws views;
2. every process sends push data and pull-requests;
3. the adversary floods the victims' well-known ports;
4. every process drains its bounded channels, ingesting pushes and
   answering pull-requests (replies land within the same round);
5. every process reads its pull-reply ports;
6. leftover channel backlog is discarded and rounds advance.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.adversary.attacker import RoundAttacker
from repro.core.config import ProtocolKind
from repro.core.protocol import GossipProcess
from repro.core.variants import DrumSharedBoundsProcess
from repro.faults.gilbert import GilbertElliottModel
from repro.net.link import LossModel
from repro.net.network import Network
from repro.sim.results import RunResult
from repro.sim.scenario import Scenario
from repro.util import SeedSequenceFactory
from repro.util.rng import SeedLike


class RoundSimulator:
    """Drives one run of a scenario with real protocol objects."""

    def __init__(
        self,
        scenario: Scenario,
        *,
        seed: SeedLike = None,
        attacker_factory=None,
        distribute_keys: bool = True,
        naive: bool = False,
        tracer=None,
    ):
        """``attacker_factory`` replaces the static :class:`RoundAttacker`
        (with an adaptive or snooping one, see :mod:`repro.adversary`):
        it is called as ``factory(scenario, network, seed)`` and must
        return a :class:`RoundAttacker`-compatible object.
        ``distribute_keys=False`` runs the *unencrypted-ports* ablation:
        processes advertise their random reply ports in cleartext,
        which a snooping adversary can harvest.

        ``naive=True`` runs the network in its unoptimised reference
        mode (object-per-packet floods, eagerly-seeded object-level
        channels).  It samples the same distributions but consumes a
        different RNG stream, so seeded naive and fast runs differ
        packet-for-packet.  It is the tests' reference for the bulk
        path (``tests/test_perf_fastpath.py`` and the statistical
        equivalence test in ``tests/test_exact_golden.py``), not a mode
        for experiments.

        ``tracer`` attaches a :class:`~repro.obs.tracer.Tracer`: the
        engine then emits the full per-packet event stream (round
        markers, sends, floods, channel acceptance and drops,
        deliveries, fault transitions).  Tracing draws
        no randomness — traced and untraced seeded runs produce
        byte-identical :class:`RunResult` traces."""
        self.scenario = scenario
        self._tracer = tracer
        seeds = SeedSequenceFactory(seed)
        self._rng = np.random.default_rng(seeds.next_seed())
        self._perturbed = set(scenario.perturbed_ids())
        self.network = Network(
            LossModel(scenario.loss, seed=seeds.next_seed()),
            seed=seeds.next_seed(),
            naive=naive,
            tracer=tracer,
        )
        config = scenario.protocol_config()
        # One node class runs every kind but the shared-bounds ablation,
        # whose push handshake overrides four phases; churn joiners are
        # built with the same choice.
        self._process_cls = (
            DrumSharedBoundsProcess
            if config.kind is ProtocolKind.DRUM_SHARED_BOUNDS
            else GossipProcess
        )
        # The schedule itself is seedless, so resolving it early (the
        # full id universe is needed before processes are built under a
        # churn plan) consumes no seed positions; the conditional
        # Gilbert-Elliott seed draw stays in its original place below.
        self._schedule = scenario.fault_schedule()
        has_churn = self._schedule is not None and self._schedule.has_churn
        # Under churn the shared destination tables must cover every id
        # that will ever exist; the director immediately narrows each
        # process's candidate pool to the current membership view.
        members = list(
            range(self._schedule.total_n if has_churn else scenario.n)
        )

        # Malicious and crashed nodes exist as addresses with no open
        # ports: gossip sent to them is silently wasted.
        for pid in scenario.malicious_ids() + scenario.crashed_ids():
            self.network.register_node(pid)

        self.processes: Dict[int, GossipProcess] = {}
        for pid in scenario.alive_correct_ids():
            self.processes[pid] = self._process_cls(
                pid,
                config,
                members,
                self.network,
                seed=seeds.next_seed(),
                has_message=(pid == scenario.source),
            )
        self._all_procs = list(self.processes.values())
        if distribute_keys:
            keys = {pid: p.keys.public for pid, p in self.processes.items()}
            for process in self.processes.values():
                process.learn_keys(keys)

        #: 1-based number of the round currently (or last) executed;
        #: fault-event windows are expressed against this counter.
        self.round_no = 0
        # Fault wiring comes last so its (conditional) seed draw never
        # shifts the positions faultless runs consume — the golden
        # traces pin those.
        if self._schedule is not None:
            link = scenario.faults.link
            if link is not None and link.affects_loss:
                self.network.use_loss_model(
                    GilbertElliottModel.from_link_faults(
                        link, seed=seeds.next_seed()
                    )
                )

        self.attacker: Optional[RoundAttacker] = None
        if scenario.attack is not None:
            if attacker_factory is not None:
                self.attacker = attacker_factory(
                    scenario, self.network, seeds.next_seed()
                )
            else:
                self.attacker = RoundAttacker(
                    scenario.attack,
                    scenario.protocol,
                    scenario.attacked_ids(),
                    self.network,
                    seed=seeds.next_seed(),
                )

        # Membership churn wiring comes after the attacker: its joiner
        # seed pre-draws are gated on churn tokens, so fault-only and
        # faultless runs consume exactly the positions they always did.
        self._churn = None
        if has_churn:
            from repro.sim.churn import ChurnDirector

            self._churn = ChurnDirector(self, seeds)

        # Trace bookkeeping (fault-transition edge detection); emitting
        # run_start last means every seed position above is already
        # consumed, and the tracer itself never draws randomness.
        self._prev_crashed = frozenset()
        self._prev_side_a = None
        if tracer is not None:
            tracer.run_start(
                "exact",
                protocol=scenario.protocol.value,
                n=scenario.n,
            )
            tracer.delivered(node=scenario.source, via="source")

    def holders(self) -> int:
        """Alive correct processes currently holding M."""
        return sum(p.has_message for p in self.processes.values())

    def step_round(self) -> None:
        """Execute one synchronised gossip round.

        Perturbed processes sleep through a round with the scenario's
        perturbation probability: they take part in no phase, and
        whatever arrived for them is discarded at round end like any
        other unread backlog.

        Under a fault plan, crashed processes are treated like a
        perturbed process's off round (no phase at all — their buffered
        state persists, as for a paused OS process); stalled processes
        skip the send phase and the network mutes the rest of their
        uplink (replies included), while they keep receiving; and the
        network drops packets crossing an active partition cut or
        touching a crashed machine.
        """
        self.round_no += 1
        tr = self._tracer
        if tr is not None:
            tr.round_start(self.round_no)
        if self._perturbed:
            procs = [
                p
                for p in self.processes.values()
                if p.pid not in self._perturbed
                or self._rng.random() >= self.scenario.perturbation_prob
            ]
        else:
            # No perturbation draws ever happen, so the stable process
            # list is reused instead of being rebuilt every round.
            procs = self._all_procs
        if self._churn is not None:
            # Fire scheduled membership events, settle failure-detector
            # verdicts, and refresh every process's gossip candidates
            # before views are drawn.
            self._churn.begin_round(self.round_no)
            departed = self._churn.departed
            if departed:
                procs = [p for p in procs if p.pid not in departed]
            joiners = self._churn.active_joiners()
            if joiners:
                procs = procs + joiners
        send_procs = procs
        if self._schedule is not None:
            self.network.set_block(self._schedule.blocks_fn(self.round_no))
            crashed = self._schedule.crashed_at(self.round_no)
            if crashed:
                procs = [p for p in procs if p.pid not in crashed]
                send_procs = procs
            stalled = self._schedule.stalled_at(self.round_no)
            if stalled:
                send_procs = [p for p in procs if p.pid not in stalled]
            if tr is not None:
                self._emit_fault_transitions(tr, crashed)
        for p in procs:
            p.begin_round()
        for p in send_procs:
            p.send_phase()
        self._attacker_step()
        for p in procs:
            p.receive_phase()
        for p in procs:
            p.reply_phase()
        for p in procs:
            p.data_phase()
        # Drum discards all unread messages at round end.
        self.network.end_round()
        for p in procs:
            p.end_round()
        if self._churn is not None:
            self._churn.end_round(self.round_no)
        if tr is not None:
            self._emit_deliveries(tr)

    def _emit_fault_transitions(self, tr, crashed) -> None:
        """Emit crash/heal and partition edges for the current round."""
        now_crashed = frozenset(crashed) if crashed else frozenset()
        went_down = now_crashed - self._prev_crashed
        came_back = self._prev_crashed - now_crashed
        if went_down:
            tr.crash(went_down)
        if came_back:
            tr.heal(came_back)
        self._prev_crashed = now_crashed
        side_a = self._schedule.partition_at(self.round_no)
        if side_a is not None and self._prev_side_a is None:
            tr.partition(side_a)
        elif side_a is None and self._prev_side_a is not None:
            tr.partition_heal()
        self._prev_side_a = side_a

    def _emit_deliveries(self, tr) -> None:
        """Emit one delivered event per process that got M this round."""
        for pid, process in self.processes.items():
            if process.delivery_round == self.round_no:
                tr.delivered(node=pid, via=process.delivery_path)
        if self._churn is not None:
            # Joiners count their rounds locally (from their own join),
            # so their deliveries are detected by state edge instead.
            self._churn.emit_joiner_deliveries(tr, self.round_no)

    def _attacker_step(self) -> None:
        """Let the attacker observe the group and inject its flood."""
        if self.attacker is None:
            return
        observe = getattr(self.attacker, "observe_round", None)
        if observe is not None:
            observe({pid: p.has_message for pid, p in self.processes.items()})
        self.attacker.inject_round()

    def run(self) -> RunResult:
        """Run until the coverage threshold is met or max_rounds elapse."""
        scenario = self.scenario
        attacked = set(scenario.attacked_ids())
        target = scenario.threshold_count()

        counts: List[int] = [self.holders()]
        counts_attacked = [
            sum(self.processes[pid].has_message for pid in attacked)
        ]
        counts_non = [counts[0] - counts_attacked[0]]

        alive = scenario.num_alive_correct
        # Under a fault plan, processes crashed for good can strand the
        # run below both the threshold and full coverage; the run is
        # over once every *other* process holds M.
        doomed = (
            self._schedule.doomed_ids(scenario.max_rounds)
            if self._schedule is not None
            else None
        )
        # Under churn the run must outlive the last scheduled membership
        # event (plus dissemination slack): a threshold met early would
        # otherwise skip joins entirely and no churn metric could exist.
        min_rounds = self._churn.min_rounds if self._churn is not None else 0
        while (
            counts[-1] < target or self.round_no < min_rounds
        ) and len(counts) <= scenario.max_rounds:
            self.step_round()
            total = self.holders()
            in_attacked = sum(
                self.processes[pid].has_message for pid in attacked
            )
            counts.append(total)
            counts_attacked.append(in_attacked)
            counts_non.append(total - in_attacked)
            if self.round_no < min_rounds:
                continue
            if total >= alive:
                # Every alive correct process holds M: no further round
                # can change any trajectory, so stop simulating even if
                # a (mis)configured threshold exceeds the group size.
                break
            if (
                doomed
                and all(
                    p.has_message
                    for pid, p in self.processes.items()
                    if pid not in doomed
                )
                and (
                    self._churn is None
                    or all(
                        p.has_message
                        for p in self._churn.active_joiners()
                    )
                )
            ):
                break

        deliveries = np.full(scenario.num_alive_correct, np.nan)
        for pid, process in self.processes.items():
            if process.delivery_round is not None:
                deliveries[pid] = process.delivery_round

        result = RunResult(
            scenario=scenario,
            counts=np.asarray(counts, dtype=np.int32),
            counts_attacked=np.asarray(counts_attacked, dtype=np.int32),
            counts_non_attacked=np.asarray(counts_non, dtype=np.int32),
            delivery_rounds=deliveries,
        )
        if self._schedule is not None:
            reachable = self._schedule.reachable_ids(scenario.max_rounds)
            if self._churn is not None:
                result.residual_reliability = sum(
                    self._churn.holder(pid) for pid in reachable
                ) / len(reachable)
                result.churn = self._churn.finalize(len(counts) - 1)
            else:
                result.residual_reliability = sum(
                    self.processes[pid].has_message for pid in reachable
                ) / len(reachable)
            heal = self._schedule.last_heal_round()
            if heal:
                rtt = result.rounds_to_threshold()
                result.rounds_to_heal = (
                    rtt if np.isnan(rtt) else max(0.0, rtt - heal)
                )
        if self._tracer is not None:
            self._tracer.run_end(
                rounds=len(counts) - 1, delivered=int(counts[-1])
            )
        return result


def run_exact(
    scenario: Scenario, *, seed: SeedLike = None, tracer=None
) -> RunResult:
    """Convenience wrapper: build a :class:`RoundSimulator` and run it."""
    return RoundSimulator(scenario, seed=seed, tracer=tracer).run()
