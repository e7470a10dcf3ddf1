"""The tracer: typed event emission with pluggable sinks.

A :class:`Tracer` is handed to an engine (``RoundSimulator(...,
tracer=t)``, ``run_fast(..., tracer=t)``) or to the one cluster host
(``_Cluster(..., tracer=t)`` on the virtual clock, its subclass
``AioCluster(..., tracer=t)`` on the wall clock); the engine calls the
typed helpers below at its instrumentation points.  Every helper builds one plain
dict event, folds it into the tracer's always-on
:class:`~repro.obs.counters.ObsCounters`, and forwards it to each sink.

Disabled tracing is the *absence* of a tracer: instrumentation sites
test ``if tracer is not None`` and otherwise execute the exact code
they always did.  A tracer never draws randomness, so traced and
untraced seeded runs are byte-identical.

Round context: the round-based engines call :meth:`Tracer.round_start`,
which stamps subsequent events with that round number.  The
continuous-time stacks never start a round, so their events omit
``"round"`` and carry an explicit ``"t"`` (milliseconds) instead.

``thread_safe=True`` serialises emission under a lock — required when
a multi-threaded producer (an asyncio service scraped from other
threads) shares one tracer across threads.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional, Sequence


class Tracer:
    """Emits typed trace events to counters plus any number of sinks."""

    def __init__(self, *sinks, thread_safe: bool = False):
        from repro.obs.counters import ObsCounters

        self.sinks = list(sinks)
        self.counters = ObsCounters()
        self._round: Optional[int] = None
        self._lock = threading.Lock() if thread_safe else None

    # -- plumbing -----------------------------------------------------------

    def emit(self, event: dict) -> None:
        """Dispatch one already-built event dict."""
        lock = self._lock
        if lock is None:
            self.counters.ingest(event)
            for sink in self.sinks:
                sink.write(event)
            return
        with lock:
            self.counters.ingest(event)
            for sink in self.sinks:
                sink.write(event)

    def close(self) -> None:
        """Close every sink (flushes file-backed sinks)."""
        for sink in self.sinks:
            sink.close()

    def _ctx(self, event: dict, extra: dict) -> dict:
        if self._round is not None and "round" not in extra:
            event["round"] = self._round
        if extra:
            event.update(extra)
        return event

    # -- run / round markers ------------------------------------------------

    def run_start(
        self, engine: str, *, continuous: bool = False, **extra
    ) -> None:
        """Mark the start of a run; resets the round context to 0.

        Continuous-time producers (DES, aio) pass
        ``continuous=True`` so no round context is established — their
        events carry an explicit ``t`` timestamp instead.
        """
        self._round = None if continuous else 0
        self.emit(self._ctx({"ev": "run_start", "engine": engine}, extra))

    def round_start(self, round_no: int, **extra) -> None:
        self._round = round_no
        event = {"ev": "round_start", "round": round_no}
        if extra:
            event.update(extra)
        self.emit(event)

    def run_end(self, **extra) -> None:
        self.emit(self._ctx({"ev": "run_end"}, extra))

    # -- message lifecycle --------------------------------------------------

    def gossip_sent(
        self, src: int, dst: int, port: Optional[int] = None, **extra
    ) -> None:
        event = {"ev": "gossip_sent", "src": src, "dst": dst}
        if port is not None:
            event["port"] = port
        self.emit(self._ctx(event, extra))

    def flood_sent(self, dst: int, port: int, count: int, **extra) -> None:
        self.emit(
            self._ctx(
                {"ev": "flood_sent", "dst": dst, "port": port, "count": count},
                extra,
            )
        )

    def accepted(
        self, node: int, port: int, *, valid: int, fabricated: int = 0, **extra
    ) -> None:
        self.emit(
            self._ctx(
                {
                    "ev": "accepted",
                    "node": node,
                    "port": port,
                    "valid": valid,
                    "fabricated": fabricated,
                },
                extra,
            )
        )

    def dropped(
        self,
        reason: str,
        *,
        node: Optional[int] = None,
        port: Optional[int] = None,
        count: int = 1,
        **extra,
    ) -> None:
        event = {"ev": "dropped", "reason": reason, "count": count}
        if node is not None:
            event["node"] = node
        if port is not None:
            event["port"] = port
        self.emit(self._ctx(event, extra))

    def delivered(
        self,
        node: Optional[int] = None,
        *,
        via: Optional[str] = None,
        count: int = 1,
        **extra,
    ) -> None:
        event = {"ev": "delivered", "count": count}
        if node is not None:
            event["node"] = node
        if via is not None:
            event["via"] = via
        self.emit(self._ctx(event, extra))

    # -- fault transitions ---------------------------------------------------

    def crash(self, nodes: Iterable[int], **extra) -> None:
        self.emit(
            self._ctx({"ev": "crash", "nodes": sorted(nodes)}, extra)
        )

    def heal(self, nodes: Iterable[int], **extra) -> None:
        self.emit(self._ctx({"ev": "heal", "nodes": sorted(nodes)}, extra))

    def partition(self, side_a: Iterable[int], **extra) -> None:
        self.emit(
            self._ctx({"ev": "partition", "nodes": sorted(side_a)}, extra)
        )

    def partition_heal(self, **extra) -> None:
        self.emit(self._ctx({"ev": "partition_heal"}, extra))

    # -- membership lifecycle -------------------------------------------------

    def member_join(self, nodes: Iterable[int], **extra) -> None:
        self.emit(
            self._ctx({"ev": "member_join", "nodes": sorted(nodes)}, extra)
        )

    def member_leave(self, nodes: Iterable[int], **extra) -> None:
        self.emit(
            self._ctx({"ev": "member_leave", "nodes": sorted(nodes)}, extra)
        )

    def member_expel(self, nodes: Iterable[int], **extra) -> None:
        self.emit(
            self._ctx({"ev": "member_expel", "nodes": sorted(nodes)}, extra)
        )

    def suspect(self, nodes: Iterable[int], **extra) -> None:
        """Failure-detector verdicts: ``nodes`` newly suspected."""
        self.emit(self._ctx({"ev": "suspect", "nodes": sorted(nodes)}, extra))

    def rehabilitate(self, nodes: Iterable[int], **extra) -> None:
        """Failure-detector verdicts: ``nodes`` responsive again."""
        self.emit(
            self._ctx({"ev": "rehabilitate", "nodes": sorted(nodes)}, extra)
        )

    # -- sweep orchestration -------------------------------------------------
    #
    # Emitted by :class:`repro.sweep.SweepRunner` in cell-index order —
    # a pure function of the cell list, never of the worker count or
    # completion order — so sweep event streams are as deterministic as
    # the figures they describe.  Sweeps carry no round context.

    def sweep_start(self, *, name: str, cells: int, pending: int, **extra) -> None:
        self._round = None
        self.emit(
            self._ctx(
                {
                    "ev": "sweep_start",
                    "name": name,
                    "cells": cells,
                    "pending": pending,
                },
                extra,
            )
        )

    def sweep_end(self, *, computed: int, cache_hits: int, **extra) -> None:
        self.emit(
            self._ctx(
                {
                    "ev": "sweep_end",
                    "computed": computed,
                    "cache_hits": cache_hits,
                },
                extra,
            )
        )

    def cell_start(self, *, index: int, series: str, x: float, **extra) -> None:
        self.emit(
            self._ctx(
                {"ev": "cell_start", "index": index, "series": series, "x": x},
                extra,
            )
        )

    def cell_cache_hit(self, *, index: int, source: str, **extra) -> None:
        self.emit(
            self._ctx(
                {"ev": "cell_cache_hit", "index": index, "source": source},
                extra,
            )
        )

    def cell_finish(
        self, *, index: int, value: float, cached: bool, **extra
    ) -> None:
        self.emit(
            self._ctx(
                {
                    "ev": "cell_finish",
                    "index": index,
                    "value": value,
                    "cached": cached,
                },
                extra,
            )
        )

    def cache_hit(self, *, key: str, tier: str, **extra) -> None:
        self.emit(
            self._ctx({"ev": "cache_hit", "key": key, "tier": tier}, extra)
        )

    def cache_miss(self, *, key: str, tier: str, **extra) -> None:
        self.emit(
            self._ctx({"ev": "cache_miss", "key": key, "tier": tier}, extra)
        )

    def cache_corrupt(self, *, key: str, tier: str, **extra) -> None:
        self.emit(
            self._ctx(
                {"ev": "cache_corrupt", "key": key, "tier": tier}, extra
            )
        )
