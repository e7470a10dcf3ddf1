"""Fault injection on an event clock: the wall-clock runtime
(:mod:`repro.aio`), and crash windows on the discrete-event cluster.

A plan is applied with two small pieces:

- :class:`FaultyTransport` wraps a clock-bearing
  :class:`~repro.net.transport.Transport` and applies the plan's *link*
  conditions (Gilbert–Elliott loss, delay and jitter, reordering,
  duplication) plus the packet-level effects of scheduled events
  (partition cuts, stall muting, traffic touching a crashed machine).
  A delayed packet is one argument-carrying event on the wrapped
  transport's clock (:meth:`~repro.net.transport.Transport.call_later`),
  the cluster's one clock, and the shaper itself runs only there: a
  send from another thread hops onto the loop before any draw, so the
  shaper needs no lock and counts what is pending with a plain
  integer.  The fault round (and drop
  stamps) read the same transport's ``time()``: round ``r`` spans
  ``[(r-1)·round_duration_ms, r·round_duration_ms)`` measured from
  :meth:`FaultyTransport.start_clock` — the same global fault clock
  the discrete-event stack uses.
- :func:`crash_flips` lists the crash / recover windows as round
  boundaries in milliseconds; :func:`arm_flips` puts them on the
  cluster host's clock as ``node.stop()`` / ``node.start()`` events —
  the virtual one or the asyncio :class:`~repro.aio.env.LoopClock`.

On the wall clock both are deterministic given a seed only up to
scheduling: the *plan* (who crashes when, which links are cut) is
exactly reproducible, while packet-level interleaving is not.  On the
virtual clock the flips are as seed-exact as everything else.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.gilbert import GilbertElliottModel
from repro.faults.plan import FaultPlan
from repro.faults.schedule import FaultSchedule
from repro.net.address import Address
from repro.net.transport import Handler, Transport
from repro.util import derive_rng, spawn_seeds
from repro.util.rng import SeedLike


class FaultyTransport(Transport):
    """A transport decorator applying a :class:`FaultPlan` to every send.

    Every draw happens in the wrapped transport's delivery context (the
    loop thread): a send from anywhere else first hops there as a
    zero-delay ``call_later``.  A plan with a loss model replaces the
    wrapped stack's scalar loss, as on every other engine.
    """

    def __init__(
        self,
        inner: Transport,
        plan: FaultPlan,
        *,
        n: int,
        num_alive_correct: int,
        round_duration_ms: float,
        seed: SeedLike = None,
        tracer=None,
    ):
        super().__init__(loss=None)
        if round_duration_ms <= 0:
            raise ValueError(
                f"round_duration_ms must be > 0, got {round_duration_ms}"
            )
        self.inner = inner
        # A fired delayed packet: a loop transport dispatches it at once.
        self._forward = getattr(inner, "deliver", inner.send)
        self.plan = plan
        # Observability: dropped events (partition cuts, bursty loss)
        # stamped with ``t`` = ms since the fault clock's origin, all
        # emitted on the loop thread.
        self.tracer = tracer
        self.round_duration_ms = float(round_duration_ms)
        self.schedule = (
            FaultSchedule(plan, n=n, num_alive_correct=num_alive_correct)
            if plan.events
            else None
        )
        link = plan.link
        self._ge: Optional[GilbertElliottModel] = None
        self._link = None
        # Loss and timing draw independent children of the one seed, so
        # no packet's jitter is a function of its loss draw.
        loss_seed, timing_seed = spawn_seeds(seed, 2)
        if link is not None:
            if link.affects_loss:
                self._ge = GilbertElliottModel.from_link_faults(
                    link, seed=loss_seed
                )
                layer = inner  # the plan's loss replaces the scalar one
                while layer is not None:
                    layer.loss = None
                    layer = getattr(layer, "inner", None)
            if link.shapes_timing:
                self._link = link
        self._rng = derive_rng(timing_seed)
        self._origin = inner.time()
        self._closed = False
        #: Counters for tests and reports.
        self.blocked = 0
        self.dropped = 0
        self.delayed = 0
        self.duplicated = 0
        #: Packets armed on the delay line and not yet delivered.
        self.pending = 0

    # -- the global fault clock ---------------------------------------------

    def start_clock(self) -> None:
        """Anchor fault round 1 at the current instant (call on start)."""
        self._origin = self.inner.time()

    def current_round(self) -> int:
        return int(self._elapsed_ms() // self.round_duration_ms) + 1

    def _elapsed_ms(self) -> float:
        return (self.inner.time() - self._origin) * 1000.0

    # -- Transport interface --------------------------------------------------

    def bind(self, addr: Address, handler: Handler) -> None:
        self.inner.bind(addr, handler)

    def unbind(self, addr: Address) -> None:
        self.inner.unbind(addr)

    def send(self, src: Address, dst: Address, payload: object) -> None:
        if self._closed:
            return
        if not self.inner.in_context():
            self.inner.call_later(0.0, self.send, src, dst, payload)
            return
        if self.schedule is not None and self.schedule.blocks(
            self.current_round(), src.node, dst.node
        ):
            self.blocked += 1
            if self.tracer is not None:
                self.tracer.dropped(
                    "partition", node=dst.node, port=dst.port,
                    t=self._elapsed_ms(),
                )
            return
        if self._ge is not None and not self._ge.delivered():
            self.dropped += 1
            if self.tracer is not None:
                self.tracer.dropped(
                    "loss", node=dst.node, port=dst.port,
                    t=self._elapsed_ms(),
                )
            return
        link = self._link
        if link is None:
            self.inner.send(src, dst, payload)
            return
        # ``lo + (hi - lo) * random()`` is ``uniform(lo, hi)`` bit for
        # bit, at a third of the cost per scalar draw.
        rng = self._rng
        delay = link.delay_ms
        jitter = link.jitter_ms
        if jitter > 0:
            delay += -jitter + 2.0 * jitter * rng.random()
        if link.reorder_prob > 0 and rng.random() < link.reorder_prob:
            # Push the packet past the link's normal spread so a later
            # send can overtake it.
            span = link.delay_ms + jitter + 1.0
            delay += span * (1.0 + rng.random())
        duplicate = (
            link.duplicate_prob > 0 and rng.random() < link.duplicate_prob
        )
        dup_delay = link.delay_ms + jitter * rng.random() if duplicate else 0.0
        self._send_later(delay, src, dst, payload)
        if duplicate:
            self.duplicated += 1
            self._send_later(dup_delay, src, dst, payload)

    def _send_later(
        self, delay_ms: float, src: Address, dst: Address, payload: object
    ) -> None:
        if delay_ms <= 0:
            self.inner.send(src, dst, payload)
            return
        if self._closed or self.inner.call_later(
            delay_ms / 1000.0, self._arrive, src, dst, payload
        ) is None:
            return  # closed, or inner is down and has counted the drop
        self.delayed += 1
        self.pending += 1

    def _arrive(self, src: Address, dst: Address, payload: object) -> None:
        """A held packet's clock event: forwarded unless closed since."""
        if self._closed:
            return
        self.pending -= 1
        self._forward(src, dst, payload)

    def time(self) -> float:
        """The inner transport's clock, so stacked shapers share it."""
        return self.inner.time()

    def call_later(self, delay_s: float, fn: Callable, *args):
        """The inner transport's clock, so stacked shapers share it."""
        return self.inner.call_later(delay_s, fn, *args)

    def in_context(self) -> bool:
        """The inner transport's context, where the shaper draws."""
        return self.inner.in_context()

    def counters(self) -> Dict[str, int]:
        """The shaper's self-health counters, for status reports."""
        return {
            "blocked": self.blocked,
            "dropped": self.dropped,
            "delayed": self.delayed,
            "duplicated": self.duplicated,
            "pending": self.pending,
        }

    def close(self) -> None:
        """Stop shaping; packets still on the delay line fire as no-ops."""
        self._closed = True
        self.pending = 0
        self.inner.close()


def crash_flips(
    schedule: FaultSchedule, round_ms: float
) -> List[Tuple[float, str, frozenset]]:
    """A plan's crash / recover windows as ``(at_ms, action, ids)``: a
    crash at round r flips the nodes down at the boundary into r.

    Sorted by time only, and stably, so flips on one boundary keep
    window order — the order an event heap fires them in when they are
    scheduled window by window."""
    events = []
    for start, stop, ids in schedule._crash_windows:
        events.append(((start - 1) * round_ms, "crash", ids))
        if stop is not None:
            events.append(((stop - 1) * round_ms, "recover", ids))
    return sorted(events, key=lambda e: e[0])


def arm_flips(clock, schedule, nodes, round_ms: float, tracer) -> None:
    """Put :func:`crash_flips` on ``clock`` as ``node.stop()`` /
    ``node.start()`` events, fault round 1 starting now.

    ``clock`` is any :class:`~repro.des.engine.EventLoop` — the DES
    cluster's virtual one or the asyncio cluster's
    :class:`~repro.aio.env.LoopClock` — so flips fire in one due order
    with the packets they cut off.  ``nodes`` is read when a flip
    fires: ids absent then (departed members) are skipped.  Stopping
    unbinds every port, so in-flight packets to a crashed node
    dead-letter; its buffer survives, as for a paused process.
    """
    origin = clock.now

    def flip(action: str, ids: frozenset) -> None:
        flipped = []
        for pid in sorted(ids):
            node = nodes.get(pid)
            if node is None:
                continue
            if action == "crash" and node.running:
                node.stop()
                flipped.append(pid)
            elif action == "recover" and not node.running:
                node.start()
                flipped.append(pid)
        if tracer is not None and flipped:
            t = clock.now - origin
            if action == "crash":
                tracer.crash(flipped, t=t)
            else:
                tracer.heal(flipped, t=t)

    for at_ms, action, ids in crash_flips(schedule, round_ms):
        clock.schedule(at_ms, flip, action, ids)
