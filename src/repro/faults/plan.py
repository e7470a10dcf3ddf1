"""Declarative fault plans.

A :class:`FaultPlan` describes everything that can go wrong in a run
beyond the paper's baseline model (i.i.d. constant link loss and a DoS
flood): degraded links and scheduled whole-group events.  One plan is
consumed uniformly by all three execution stacks — the round-based
engines (:mod:`repro.sim.engine`, :mod:`repro.sim.fast`), the
discrete-event cluster (:mod:`repro.des.cluster`), and the asyncio
runtime (:mod:`repro.aio.cluster`) — so a chaos scenario written once
runs everywhere.

Two ingredient kinds:

- :class:`LinkFaults` — stationary link conditions: Gilbert–Elliott
  bursty loss (a two-state Markov chain alternating between a good and a
  bad loss regime), plus extra per-packet delay/jitter, probabilistic
  reordering, and duplication.  When the loss parameters are set they
  *replace* the scenario's i.i.d. loss on every link.  Delay, jitter,
  reordering, and duplication only have meaning where packets have
  individual timing, i.e. the event-driven stacks (DES and aio); the
  synchronous round engines apply the loss chain only.
- scheduled events — :class:`CrashNodes`, :class:`Partition`, and
  :class:`SenderStall`, all expressed in *round numbers* so the same
  plan is meaningful on every stack (the event-driven stacks convert
  rounds to milliseconds through their configured round duration).

Determinism contract: which processes an event hits follows fixed
id-layout conventions (resolved by
:class:`~repro.faults.schedule.FaultSchedule`), exactly like
:class:`~repro.sim.scenario.Scenario`'s malicious/crashed id blocks —
the protocols treat members symmetrically, so the layout is immaterial
and no randomness is needed to pick victims.  The only randomness a plan
introduces is the loss chain itself, seeded positionally from the run
seed; repeated seeded runs are identical, and runs without a plan
consume exactly the RNG stream they consumed before fault injection
existed (golden traces are unchanged for ``faults=None``).

Round-number convention: round ``r`` is the round that produces
``counts[r]`` in a :class:`~repro.sim.results.RunResult` trajectory
(rounds are 1-based; ``counts[0]`` is the pre-gossip state).  An event
``at_round=r`` is in effect *during* round ``r``; a window ``start–stop``
covers rounds ``start .. stop-1`` with normality restored in ``stop``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple, Union

from repro.util import check_fraction, check_non_negative, check_probability


@dataclass(frozen=True)
class LinkFaults:
    """Stationary link degradation applied to every link.

    The loss model is Gilbert–Elliott: a Markov chain with a *good*
    state (loss ``loss_good``) and a *bad* state (loss ``loss_bad``),
    switching good→bad with probability ``p_good_to_bad`` and bad→good
    with ``p_bad_to_good`` per transmission.  ``p_good_to_bad = 0``
    degenerates to i.i.d. loss at ``loss_good``.
    """

    loss_good: float = 0.0
    loss_bad: float = 0.0
    p_good_to_bad: float = 0.0
    p_bad_to_good: float = 1.0
    #: Extra per-packet one-way delay and symmetric jitter (event-driven
    #: stacks only; the round engines have no per-packet timing).
    delay_ms: float = 0.0
    jitter_ms: float = 0.0
    #: Probability that a packet is held back long enough to arrive
    #: after packets sent later (realised as a large extra delay draw).
    reorder_prob: float = 0.0
    #: Probability that a packet is delivered twice.
    duplicate_prob: float = 0.0

    def __post_init__(self) -> None:
        check_probability("loss_good", self.loss_good)
        check_probability("loss_bad", self.loss_bad)
        check_probability("p_good_to_bad", self.p_good_to_bad)
        check_probability("p_bad_to_good", self.p_bad_to_good)
        check_non_negative("delay_ms", self.delay_ms)
        check_non_negative("jitter_ms", self.jitter_ms)
        check_probability("reorder_prob", self.reorder_prob)
        check_probability("duplicate_prob", self.duplicate_prob)
        if self.p_good_to_bad > 0 and self.p_bad_to_good == 0:
            raise ValueError(
                "p_bad_to_good must be > 0 when p_good_to_bad is > 0 "
                "(the chain would be absorbed in the bad state; use "
                "loss_good for permanent degradation instead)"
            )

    @property
    def affects_loss(self) -> bool:
        """True when the plan carries its own loss model."""
        return self.loss_good > 0 or (
            self.p_good_to_bad > 0 and self.loss_bad > 0
        )

    @property
    def shapes_timing(self) -> bool:
        """True when delay/jitter/reorder/duplication are configured."""
        return (
            self.delay_ms > 0
            or self.jitter_ms > 0
            or self.reorder_prob > 0
            or self.duplicate_prob > 0
        )

    @property
    def stationary_loss(self) -> float:
        """Long-run mean loss probability of the chain."""
        if self.p_good_to_bad == 0:
            return self.loss_good
        pi_bad = self.p_good_to_bad / (self.p_good_to_bad + self.p_bad_to_good)
        return (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad

    def describe(self) -> str:
        """Spec-grammar clauses (``;``-joined), re-parseable by
        :meth:`FaultPlan.parse`."""
        parts = []
        if self.p_good_to_bad > 0:
            parts.append(
                f"gilbert:{self.loss_good:g},{self.loss_bad:g},"
                f"{self.p_good_to_bad:g},{self.p_bad_to_good:g}"
            )
        elif self.loss_good > 0:
            parts.append(f"loss:{self.loss_good:g}")
        if self.delay_ms > 0 or self.jitter_ms > 0:
            parts.append(f"delay:{self.delay_ms:g}~{self.jitter_ms:g}")
        if self.reorder_prob > 0:
            parts.append(f"reorder:{self.reorder_prob:g}")
        if self.duplicate_prob > 0:
            parts.append(f"dup:{self.duplicate_prob:g}")
        return ";".join(parts) if parts else "none"


def _check_round(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class CrashNodes:
    """A fraction of the alive correct processes (never the source)
    crash at the start of round ``at_round``.

    They neither send nor accept anything while down; with
    ``recover_round`` set they come back — state intact, as a paused
    process would — at the start of that round, otherwise they stay down
    for the rest of the run.
    """

    at_round: int
    fraction: float
    recover_round: Optional[int] = None

    def __post_init__(self) -> None:
        _check_round("at_round", self.at_round)
        check_fraction("fraction", self.fraction)
        if self.recover_round is not None:
            _check_round("recover_round", self.recover_round)
            if self.recover_round <= self.at_round:
                raise ValueError(
                    f"recover_round ({self.recover_round}) must be after "
                    f"at_round ({self.at_round})"
                )

    def describe(self) -> str:
        window = (
            f"@{self.at_round}"
            if self.recover_round is None
            else f"@{self.at_round}-{self.recover_round}"
        )
        return f"crash{window}:{self.fraction:g}"


@dataclass(frozen=True)
class Partition:
    """The group splits into two components for rounds
    ``start_round .. heal_round - 1``.

    Component A is the lowest ``fraction·n`` ids (it always contains the
    source, id 0); everything crossing the cut is dropped.  From
    ``heal_round`` on the network is whole again.
    """

    start_round: int
    heal_round: int
    fraction: float = 0.5

    def __post_init__(self) -> None:
        _check_round("start_round", self.start_round)
        _check_round("heal_round", self.heal_round)
        if self.heal_round <= self.start_round:
            raise ValueError(
                f"heal_round ({self.heal_round}) must be after "
                f"start_round ({self.start_round})"
            )
        check_fraction("fraction", self.fraction)
        if self.fraction >= 1.0:
            raise ValueError(
                "partition fraction must leave both sides non-empty "
                f"(got {self.fraction})"
            )

    def describe(self) -> str:
        return (
            f"partition@{self.start_round}-{self.heal_round}"
            f":{self.fraction:g}"
        )


@dataclass(frozen=True)
class SenderStall:
    """A fraction of the alive correct processes (never the source) send
    nothing during rounds ``start_round .. stop_round - 1``.

    Their uplink is mute — no gossip, no pull-replies, no push-replies —
    but they keep receiving and their state keeps updating: the
    *outbound* half of Section 2's perturbed-process behaviour,
    modelling a stalled send thread or a saturated uplink.
    """

    start_round: int
    stop_round: int
    fraction: float

    def __post_init__(self) -> None:
        _check_round("start_round", self.start_round)
        _check_round("stop_round", self.stop_round)
        if self.stop_round <= self.start_round:
            raise ValueError(
                f"stop_round ({self.stop_round}) must be after "
                f"start_round ({self.start_round})"
            )
        check_fraction("fraction", self.fraction)

    def describe(self) -> str:
        return (
            f"stall@{self.start_round}-{self.stop_round}:{self.fraction:g}"
        )


@dataclass(frozen=True)
class JoinNodes:
    """A fraction (of ``n``) of *new* processes join at round ``at_round``.

    Joiners take fresh ids above the initial group (``n, n+1, ...``,
    consecutive ascending blocks per event in plan order — seedless, so
    every stack resolves the same joiner ids).  Each joiner obtains a
    CA certificate and the CA's initial membership view; the join event
    is then disseminated over the multicast protocol under test, so join
    propagation itself is subject to any concurrent attack.  With
    ``leave_round`` set the same block logs out again at that round.
    """

    at_round: int
    fraction: float
    leave_round: Optional[int] = None

    def __post_init__(self) -> None:
        _check_round("at_round", self.at_round)
        check_fraction("fraction", self.fraction)
        if self.leave_round is not None:
            _check_round("leave_round", self.leave_round)
            if self.leave_round <= self.at_round:
                raise ValueError(
                    f"leave_round ({self.leave_round}) must be after "
                    f"at_round ({self.at_round})"
                )

    def describe(self) -> str:
        window = (
            f"@{self.at_round}"
            if self.leave_round is None
            else f"@{self.at_round}-{self.leave_round}"
        )
        return f"join{window}:{self.fraction:g}"


@dataclass(frozen=True)
class LeaveNodes:
    """A fraction of the alive correct processes (never the source) log
    out at round ``at_round``: the CA revokes their certificates and a
    leave event spreads over the multicast.

    With ``rejoin_round`` set the same block re-joins (fresh
    certificates) at that round; otherwise they are gone for good.
    Victims come from the top of the alive correct id block, descending,
    with an independent cursor from crash/stall events.
    """

    at_round: int
    fraction: float
    rejoin_round: Optional[int] = None

    def __post_init__(self) -> None:
        _check_round("at_round", self.at_round)
        check_fraction("fraction", self.fraction)
        if self.rejoin_round is not None:
            _check_round("rejoin_round", self.rejoin_round)
            if self.rejoin_round <= self.at_round:
                raise ValueError(
                    f"rejoin_round ({self.rejoin_round}) must be after "
                    f"at_round ({self.at_round})"
                )

    def describe(self) -> str:
        window = (
            f"@{self.at_round}"
            if self.rejoin_round is None
            else f"@{self.at_round}-{self.rejoin_round}"
        )
        return f"leave{window}:{self.fraction:g}"


@dataclass(frozen=True)
class ExpelNodes:
    """The CA expels a fraction (of ``n``) of the group at ``at_round``
    on suspicion of malbehaviour — permanently.

    Victims descend from the top of the *full* id block (the malicious
    block first, mirroring who a CA would actually expel), never the
    source.
    """

    at_round: int
    fraction: float

    def __post_init__(self) -> None:
        _check_round("at_round", self.at_round)
        check_fraction("fraction", self.fraction)

    def describe(self) -> str:
        return f"expel@{self.at_round}:{self.fraction:g}"


FaultEvent = Union[
    CrashNodes, Partition, SenderStall, JoinNodes, LeaveNodes, ExpelNodes
]

_EVENT_TYPES = (
    CrashNodes, Partition, SenderStall, JoinNodes, LeaveNodes, ExpelNodes
)


@dataclass(frozen=True)
class FaultPlan:
    """A composable description of everything that goes wrong in a run."""

    link: Optional[LinkFaults] = None
    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.link is not None and not isinstance(self.link, LinkFaults):
            raise TypeError(
                f"link must be a LinkFaults or None, got {self.link!r}"
            )
        events = tuple(self.events)
        for event in events:
            if not isinstance(event, _EVENT_TYPES):
                raise TypeError(f"unknown fault event {event!r}")
        object.__setattr__(self, "events", events)

    # -- introspection ------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.link is None and not self.events

    @property
    def partitions(self) -> Tuple[Partition, ...]:
        return tuple(e for e in self.events if isinstance(e, Partition))

    @property
    def crashes(self) -> Tuple[CrashNodes, ...]:
        return tuple(e for e in self.events if isinstance(e, CrashNodes))

    @property
    def stalls(self) -> Tuple[SenderStall, ...]:
        return tuple(e for e in self.events if isinstance(e, SenderStall))

    @property
    def joins(self) -> Tuple[JoinNodes, ...]:
        return tuple(e for e in self.events if isinstance(e, JoinNodes))

    @property
    def leaves(self) -> Tuple[LeaveNodes, ...]:
        return tuple(e for e in self.events if isinstance(e, LeaveNodes))

    @property
    def expels(self) -> Tuple[ExpelNodes, ...]:
        return tuple(e for e in self.events if isinstance(e, ExpelNodes))

    @property
    def has_churn(self) -> bool:
        """True when the plan changes group membership (join/leave/expel)."""
        return any(
            isinstance(e, (JoinNodes, LeaveNodes, ExpelNodes))
            for e in self.events
        )

    def last_event_round(self) -> int:
        """The last round at which any event changes state (0 if none)."""
        last = 0
        for event in self.events:
            if isinstance(event, CrashNodes):
                last = max(last, event.recover_round or event.at_round)
            elif isinstance(event, Partition):
                last = max(last, event.heal_round)
            elif isinstance(event, JoinNodes):
                last = max(last, event.leave_round or event.at_round)
            elif isinstance(event, LeaveNodes):
                last = max(last, event.rejoin_round or event.at_round)
            elif isinstance(event, ExpelNodes):
                last = max(last, event.at_round)
            else:
                last = max(last, event.stop_round)
        return last

    def with_(self, **changes) -> "FaultPlan":
        return replace(self, **changes)

    def describe(self) -> str:
        """Compact one-line form, also accepted back by :meth:`parse`."""
        parts = [event.describe() for event in self.events]
        if self.link is not None and self.link.describe() != "none":
            parts.append(self.link.describe())
        return ";".join(parts) if parts else "none"

    def to_jsonable(self) -> dict:
        return {
            "link": None
            if self.link is None
            else {
                "loss_good": self.link.loss_good,
                "loss_bad": self.link.loss_bad,
                "p_good_to_bad": self.link.p_good_to_bad,
                "p_bad_to_good": self.link.p_bad_to_good,
                "delay_ms": self.link.delay_ms,
                "jitter_ms": self.link.jitter_ms,
                "reorder_prob": self.link.reorder_prob,
                "duplicate_prob": self.link.duplicate_prob,
            },
            "events": [event.describe() for event in self.events],
        }

    # -- CLI spec parsing ----------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the CLI fault spec mini-language.

        ``spec`` is a ``;``-separated list of clauses::

            crash@R:F           crash fraction F at round R, forever
            crash@R1-R2:F       ... recovering at round R2
            partition@R1-R2:F   split F/(1-F) for rounds R1..R2-1
            stall@R1-R2:F       fraction F stops sending for R1..R2-1
            join@R:F            F*n new processes join at round R
            join@R1-R2:F        ... leaving again at round R2
            leave@R:F           fraction F of members log out at R
            leave@R1-R2:F       ... re-joining at round R2
            expel@R:F           the CA expels F*n members at round R
            loss:P              i.i.d. loss P on every link
            gilbert:LG,LB,PGB,PBG   Gilbert–Elliott bursty loss
            delay:MS or delay:MS~JIT   per-packet delay (+- jitter)
            reorder:P           reordering probability
            dup:P               duplication probability

        Example: ``crash@5:0.1;partition@8-15:0.4;gilbert:0.01,0.3,0.05,0.25``
        """
        spec = spec.strip()
        if not spec or spec == "none":
            return cls()
        link: Optional[LinkFaults] = None
        events = []

        def merge(**kw) -> None:
            nonlocal link
            link = replace(link, **kw) if link is not None else LinkFaults(**kw)

        for raw in spec.split(";"):
            clause = raw.strip()
            if not clause:
                continue
            try:
                head, _, arg = clause.partition(":")
                head = head.strip()
                arg = arg.strip()
                if head.startswith("crash@"):
                    window = head[len("crash@"):]
                    if "-" in window:
                        start, stop = window.split("-", 1)
                        events.append(
                            CrashNodes(int(start), float(arg), int(stop))
                        )
                    else:
                        events.append(CrashNodes(int(window), float(arg)))
                elif head.startswith("partition@"):
                    start, stop = head[len("partition@"):].split("-", 1)
                    events.append(
                        Partition(int(start), int(stop), float(arg))
                    )
                elif head.startswith("stall@"):
                    start, stop = head[len("stall@"):].split("-", 1)
                    events.append(
                        SenderStall(int(start), int(stop), float(arg))
                    )
                elif head.startswith("join@"):
                    window = head[len("join@"):]
                    if "-" in window:
                        start, stop = window.split("-", 1)
                        events.append(
                            JoinNodes(int(start), float(arg), int(stop))
                        )
                    else:
                        events.append(JoinNodes(int(window), float(arg)))
                elif head.startswith("leave@"):
                    window = head[len("leave@"):]
                    if "-" in window:
                        start, stop = window.split("-", 1)
                        events.append(
                            LeaveNodes(int(start), float(arg), int(stop))
                        )
                    else:
                        events.append(LeaveNodes(int(window), float(arg)))
                elif head.startswith("expel@"):
                    events.append(
                        ExpelNodes(int(head[len("expel@"):]), float(arg))
                    )
                elif head == "loss":
                    merge(loss_good=float(arg))
                elif head == "gilbert":
                    lg, lb, pgb, pbg = (float(v) for v in arg.split(","))
                    merge(
                        loss_good=lg,
                        loss_bad=lb,
                        p_good_to_bad=pgb,
                        p_bad_to_good=pbg,
                    )
                elif head == "delay":
                    if "~" in arg:
                        delay, jitter = arg.split("~", 1)
                        merge(delay_ms=float(delay), jitter_ms=float(jitter))
                    else:
                        merge(delay_ms=float(arg))
                elif head == "reorder":
                    merge(reorder_prob=float(arg))
                elif head == "dup":
                    merge(duplicate_prob=float(arg))
                else:
                    raise ValueError(f"unknown fault clause {clause!r}")
            except ValueError as exc:
                if "unknown fault clause" in str(exc):
                    raise
                raise ValueError(
                    f"malformed fault clause {clause!r}: {exc}"
                ) from exc
        return cls(link=link, events=tuple(events))

    # -- validation against a concrete group ---------------------------------

    def validate_for(
        self, *, n: int, num_alive_correct: int, max_rounds: int
    ) -> None:
        """Check the plan is satisfiable for a concrete group.

        Raises ``ValueError`` when an event targets more processes than
        exist (the source is never crashed/stalled, so the eligible pool
        is ``num_alive_correct - 1``) or when a partition would leave a
        side empty.
        """
        pool = num_alive_correct - 1
        for event in self.events:
            if isinstance(event, CrashNodes):
                count = int(round(event.fraction * num_alive_correct))
                if count > pool:
                    raise ValueError(
                        f"{event.describe()} would crash {count} processes "
                        f"but only {pool} are eligible (the source never "
                        "crashes)"
                    )
            elif isinstance(event, SenderStall):
                count = int(round(event.fraction * num_alive_correct))
                if count > pool:
                    raise ValueError(
                        f"{event.describe()} would stall {count} processes "
                        f"but only {pool} are eligible"
                    )
            elif isinstance(event, Partition):
                side_a = int(round(event.fraction * n))
                if not 1 <= side_a <= n - 1:
                    raise ValueError(
                        f"{event.describe()} leaves one side of the "
                        f"partition empty in a group of {n}"
                    )
            elif isinstance(event, JoinNodes):
                count = int(round(event.fraction * n))
                if count < 1:
                    raise ValueError(
                        f"{event.describe()} adds no processes in a group "
                        f"of {n} (fraction rounds to zero); churn tokens "
                        "must resolve to at least one process"
                    )
            elif isinstance(event, LeaveNodes):
                count = int(round(event.fraction * num_alive_correct))
                if count < 1:
                    raise ValueError(
                        f"{event.describe()} removes no processes "
                        "(fraction rounds to zero); churn tokens must "
                        "resolve to at least one process"
                    )
                if count > pool:
                    raise ValueError(
                        f"{event.describe()} would log out {count} "
                        f"processes but only {pool} are eligible (the "
                        "source never leaves)"
                    )
            elif isinstance(event, ExpelNodes):
                count = int(round(event.fraction * n))
                if count < 1:
                    raise ValueError(
                        f"{event.describe()} expels no processes in a "
                        f"group of {n} (fraction rounds to zero); churn "
                        "tokens must resolve to at least one process"
                    )
                if count > n - 1:
                    raise ValueError(
                        f"{event.describe()} would expel {count} of {n} "
                        "processes; the source can never be expelled"
                    )
            if self.last_event_round() > max_rounds:
                # A plan reaching past the horizon is usually a typo'd
                # round number; partitions that never heal in-horizon
                # are expressed by a heal_round > max_rounds, which is
                # legitimate — so warn-by-validation only for events
                # that *start* out of range.
                pass
        for event in self.events:
            start = (
                event.at_round
                if isinstance(
                    event, (CrashNodes, JoinNodes, LeaveNodes, ExpelNodes)
                )
                else event.start_round
            )
            if start > max_rounds:
                raise ValueError(
                    f"{event.describe()} starts after max_rounds "
                    f"({max_rounds}) and would never fire"
                )
