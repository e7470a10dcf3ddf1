"""The one link, and crash windows on the cluster host's clock.

Both clocks of the one cluster host (:mod:`repro.des.cluster`) run one
network (DESIGN.md §7), applied with two small pieces:

- :class:`FaultyTransport` is the link: round a clock-bearing
  :class:`~repro.net.transport.Transport` (the loopback transport, or
  UDP sockets on the asyncio loop) it owns every per-datagram draw —
  scalar loss, base latency, a plan's cuts, Gilbert–Elliott loss and
  timing shaping — and the ``gossip_sent`` / ``dropped`` trace events.
  A datagram is one event on the wrapped transport's clock, and fault
  rounds count that clock's milliseconds: round ``r`` spans
  ``[(r-1)·round_duration_ms, r·round_duration_ms)`` from
  :meth:`FaultyTransport.start_clock`.
- :func:`crash_flips` lists the crash / recover windows as round
  boundaries in milliseconds; :func:`arm_flips` puts them on the
  cluster host's clock as ``node.stop()`` / ``node.start()`` events.

On the virtual clock everything is seed-exact.  On the wall clock the
*plan* (who crashes when, which links are cut) is exactly reproducible,
while packet-level interleaving is not.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.gilbert import GilbertElliottModel
from repro.faults.plan import FaultPlan
from repro.faults.schedule import FaultSchedule
from repro.net.address import Address
from repro.net.link import LossModel
from repro.net.transport import Handler, Transport
from repro.util import derive_rng, spawn_seeds
from repro.util.rng import SeedLike


class FaultyTransport(Transport):
    """The link: every send's loss, latency and faults, on one generator.

    Per datagram it draws from :attr:`rng`, in this order: the cut check
    (no draw); loss — the plan's loss model if installed, else the
    scalar ``loss``, drawn only when > 0; the base latency, drawn only
    when the range is wide; then the plan's jitter, reorder hold-back
    and duplicate (its own base latency plus the delay, scheduled before
    the original).  A ``plan`` given here is installed at once, on a
    child of ``seed`` independent of :attr:`rng`.  Every send comes
    from the wrapped transport's clock context (a node's timer or
    receive), so no lock is needed.
    """

    def __init__(
        self,
        inner: Transport,
        plan: Optional[FaultPlan] = None,
        *,
        n: Optional[int] = None,
        num_alive_correct: Optional[int] = None,
        round_duration_ms: float,
        seed: SeedLike = None,
        tracer=None,
        loss: float = 0.0,
        latency_range_ms: Tuple[float, float] = (0.0, 0.0),
    ):
        if round_duration_ms <= 0:
            raise ValueError(
                f"round_duration_ms must be > 0, got {round_duration_ms}"
            )
        lo, hi = latency_range_ms
        if not 0 <= lo <= hi:
            raise ValueError(
                f"latency_range_ms must satisfy 0 <= lo <= hi, got "
                f"{latency_range_ms}"
            )
        if plan is not None:
            fault_seed, seed = spawn_seeds(seed, 2)
        #: The link's one generator: scalar loss, latency and shaping.
        self.rng = derive_rng(seed)
        #: The active loss model; a plan's replaces this scalar one.
        self.loss = LossModel(loss, seed=self.rng)
        self.inner = inner
        # A held datagram fires here; a loop transport dispatches it at
        # once, anything else (a socket, a stacked link) sends it on.
        self._deliver = getattr(inner, "deliver", None)
        self.latency_range_ms = (float(lo), float(hi))
        self.round_duration_ms = float(round_duration_ms)
        # Observability: sends and drops stamped with ``t`` = ms on the
        # clock, all emitted on it.  The tracer draws no randomness.
        self.tracer = tracer
        #: Where fault round 1 starts on the clock (ms).
        self.origin_ms = inner.now()
        self._cuts: Optional[FaultSchedule] = None
        self._link = None
        self._closed = False
        #: Counters for tests and reports.
        self.blocked = 0
        self.dropped = 0
        self.delayed = 0
        self.duplicated = 0
        #: Datagrams on the clock and not yet delivered.
        self.pending = 0
        if plan is not None:
            self.install(
                FaultSchedule(plan, n=n, num_alive_correct=num_alive_correct),
                fault_seed,
            )

    def install(self, schedule: FaultSchedule, seed: SeedLike = None) -> None:
        """Apply ``schedule``'s plan to every later send, fault round 1
        starting now.  Its loss model, seeded with ``seed`` itself,
        replaces the scalar loss."""
        plan = schedule.plan
        link = plan.link
        if link is not None:
            if link.affects_loss:
                self.loss = GilbertElliottModel.from_link_faults(
                    link, seed=seed
                )
            if link.shapes_timing:
                self._link = link
        if plan.events:
            self._cuts = schedule
        self.start_clock()

    # -- the global fault clock ---------------------------------------------

    def start_clock(self) -> None:
        """Anchor fault round 1 at the current instant."""
        self.origin_ms = self.inner.now()

    def current_round(self, at_ms: Optional[float] = None) -> int:
        """The 1-based fault round at ``at_ms`` (default: now)."""
        at_ms = self.inner.now() if at_ms is None else at_ms
        return int((at_ms - self.origin_ms) // self.round_duration_ms) + 1

    # -- Transport interface --------------------------------------------------

    def bind(self, addr: Address, handler: Handler) -> None:
        self.inner.bind(addr, handler)

    def unbind(self, addr: Address) -> None:
        self.inner.unbind(addr)

    def send(self, src: Address, dst: Address, payload: object) -> None:
        if self._closed:
            return
        inner = self.inner
        tr = self.tracer
        if tr is not None:
            tr.gossip_sent(src.node, dst.node, dst.port, t=inner.now())
        cuts = self._cuts
        if cuts is not None and cuts.blocks(
            self.current_round(), src.node, dst.node
        ):
            # A crashed machine or partition cut, not a lossy link:
            # counted separately, no randomness consumed.
            self.blocked += 1
            if tr is not None:
                tr.dropped(
                    "partition", node=dst.node, port=dst.port, t=inner.now()
                )
            return
        if not self.loss.delivered():
            self.dropped += 1
            if tr is not None:
                tr.dropped("loss", node=dst.node, port=dst.port, t=inner.now())
            return
        rng = self.rng
        lo, hi = self.latency_range_ms
        # ``lo + (hi - lo) * random()`` is ``uniform(lo, hi)`` bit for
        # bit, at a third of the cost per scalar draw.
        latency = lo if hi == lo else lo + (hi - lo) * rng.random()
        link = self._link
        if link is not None:  # an unshaped link adds 0.0 and draws nothing
            latency += link.delay_ms
            if link.jitter_ms > 0:
                j = link.jitter_ms
                latency = max(0.0, latency + (-j + 2.0 * j * rng.random()))
            if link.reorder_prob > 0 and rng.random() < link.reorder_prob:
                # Hold the packet back past anything sent in the next
                # latency-plus-delay span, so it overtakes nothing and
                # later packets overtake it.
                span = hi + link.delay_ms + link.jitter_ms
                latency += span * (1.0 + rng.random())
            if (
                link.duplicate_prob > 0
                and rng.random() < link.duplicate_prob
            ):
                self.duplicated += 1
                dup = lo if hi == lo else lo + (hi - lo) * rng.random()
                self._send_later(dup + link.delay_ms, src, dst, payload)
        self._send_later(latency, src, dst, payload)

    def _send_later(
        self, delay_ms: float, src: Address, dst: Address, payload: object
    ) -> None:
        """Put the datagram on the clock: one event, :meth:`_arrive`."""
        if self._deliver is None and delay_ms <= 0:
            self.inner.send(src, dst, payload)  # a socket: out at once
        elif not self._closed and self.inner.schedule(
            delay_ms, self._arrive, src, dst, payload
        ) is not None:  # else closed, or inner is down and counted it
            self.pending += 1
            if delay_ms > 0:
                self.delayed += 1

    def _arrive(self, src: Address, dst: Address, payload: object) -> None:
        """A datagram's clock event: delivered unless closed since."""
        if self._closed:
            return
        self.pending -= 1
        deliver = self._deliver
        if deliver is None:
            self.inner.send(src, dst, payload)
        elif not deliver(src, dst, payload) and self.tracer is not None:
            self.tracer.dropped(
                "closed", node=dst.node, port=dst.port, t=self.inner.now()
            )

    @property
    def clock(self):
        """The inner transport's clock, so stacked links share it."""
        return self.inner.clock

    def schedule(self, delay_ms: float, fn: Callable, *args):
        """The inner transport's clock, so stacked links share it."""
        return self.inner.schedule(delay_ms, fn, *args)

    def counters(self) -> Dict[str, int]:
        """The link's self-health counters, for status reports."""
        return {
            "blocked": self.blocked,
            "dropped": self.dropped,
            "delayed": self.delayed,
            "duplicated": self.duplicated,
            "pending": self.pending,
        }

    def close(self) -> None:
        """Stop sending; datagrams still on the clock fire as no-ops."""
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
