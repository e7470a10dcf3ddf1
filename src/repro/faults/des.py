"""Fault driving for the discrete-event cluster.

The round-based engines apply a :class:`~repro.faults.schedule.FaultSchedule`
synchronously; the discrete-event stack has continuous time and locally
timed, unsynchronised rounds, so the plan's round windows are anchored
to a *global* fault clock: fault round ``r`` spans
``[(r-1)·round_duration_ms, r·round_duration_ms)`` from time zero.  With
the cluster's default round duration that makes ``crash@5`` mean "goes
down five seconds in", which is exactly how the same plan reads on the
round engines.

:class:`DesFaultController` owns the event-loop side of a plan:

- crash / recover windows become scheduled ``node.stop()`` /
  ``node.start()`` calls (stopping unbinds every port, so in-flight
  packets to a crashed node dead-letter exactly like a dead machine;
  the node's buffer survives, as for a paused OS process);
- the environment's ``block_fn`` enforces partitions, stalls, and the
  crash windows' packet drops (belt and braces over the unbound ports,
  and the only mechanism the aio runtime's transport wrapper shares);
- Gilbert–Elliott link loss and delay/jitter/reorder/duplicate shaping
  are installed on the environment as post-construction hooks, so the
  cluster's historical seed positions never move.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.faults.gilbert import GilbertElliottModel
from repro.faults.plan import FaultPlan
from repro.faults.schedule import FaultSchedule
from repro.util.rng import SeedLike


class DesFaultController:
    """Applies a :class:`FaultPlan` to a built DES cluster."""

    def __init__(
        self,
        plan: FaultPlan,
        *,
        env,
        nodes: Dict[int, object],
        n: int,
        num_alive_correct: int,
        round_duration_ms: float,
        seed: SeedLike = None,
        tracer=None,
    ):
        if round_duration_ms <= 0:
            raise ValueError(
                f"round_duration_ms must be > 0, got {round_duration_ms}"
            )
        self.plan = plan
        self.env = env
        self.nodes = nodes
        # Observability: crash/heal transitions are emitted as they fire
        # on the event loop, stamped with ``t`` (sim ms).
        self.tracer = tracer
        self.round_duration_ms = float(round_duration_ms)
        self.schedule = FaultSchedule(
            plan, n=n, num_alive_correct=num_alive_correct
        )
        self._seed = seed
        self._installed = False

    # -- the global fault clock ---------------------------------------------

    def current_round(self) -> int:
        """The 1-based fault round at the environment's current time."""
        return int(self.env.now() // self.round_duration_ms) + 1

    def _round_start_ms(self, round_no: int) -> float:
        return (round_no - 1) * self.round_duration_ms

    # -- wiring --------------------------------------------------------------

    def install(self) -> None:
        """Install link hooks and schedule every crash/recover event.

        Call once, after the cluster is built and before the event loop
        runs.  Safe ordering note: events land at exact round
        boundaries, and the event loop fires them before any later
        timer, so a node crashing "at round 5" is down for all of it.
        """
        if self._installed:
            raise RuntimeError("fault controller already installed")
        self._installed = True

        link = self.plan.link
        if link is not None:
            if link.affects_loss:
                self.env.loss_model = GilbertElliottModel.from_link_faults(
                    link, seed=self._seed
                )
            if link.shapes_timing:
                self.env.link_faults = link

        if self.plan.events:
            self.env.block_fn = self._block

        for start, stop, ids in self.schedule._crash_windows:
            self.env.schedule(
                self._round_start_ms(start), self._crash_fn(ids)
            )
            if stop is not None:
                self.env.schedule(
                    self._round_start_ms(stop), self._recover_fn(ids)
                )

    def _block(self, src_node: int, dst_node: int) -> bool:
        return self.schedule.blocks(self.current_round(), src_node, dst_node)

    def _crash_fn(self, ids):
        def _crash() -> None:
            downed = []
            for pid in ids:
                node = self.nodes.get(pid)
                if node is not None and node.running:
                    node.stop()
                    downed.append(pid)
            if self.tracer is not None and downed:
                self.tracer.crash(downed, t=self.env.now())

        return _crash

    def _recover_fn(self, ids):
        def _recover() -> None:
            healed = []
            for pid in ids:
                node = self.nodes.get(pid)
                if node is not None and not node.running:
                    node.start()
                    healed.append(pid)
            if self.tracer is not None and healed:
                self.tracer.heal(healed, t=self.env.now())

        return _recover

    # -- metrics support -----------------------------------------------------

    def reachable_ids(self, horizon_ms: Optional[float] = None):
        """Reachable alive-correct ids at ``horizon_ms`` (default: now)."""
        now = self.env.now() if horizon_ms is None else horizon_ms
        horizon_round = max(1, int(now // self.round_duration_ms) + 1)
        return self.schedule.reachable_ids(horizon_round)
