"""Structured tracing and metrics (the observability spine).

Every execution stack — the exact object-level engine, the vectorised
fast engine, the discrete-event measurement platform, and the asyncio
runtime — accepts an optional :class:`Tracer` and emits the
same typed event stream through it: round/run markers, per-message
``gossip_sent`` / ``accepted`` / ``dropped`` / ``delivered`` events, and
fault transitions (``crash`` / ``heal`` / ``partition``).  Tracing is
zero-overhead when disabled (every instrumentation site is a single
``if tracer is not None`` check and no tracer draws any randomness), so
seeded runs are byte-identical with tracing on, off, or absent.

Sinks are pluggable: :class:`MemorySink` (in-memory ring buffer),
:class:`JsonlSink` (one JSON object per line), and
:class:`PrometheusSink` (text exposition of the aggregated counters).
:class:`ObsCounters` aggregates per-node / per-port / per-reason
counters from the stream and can *reconcile* them against the
engine-computed :class:`~repro.sim.results.RunResult` and
:class:`~repro.des.measurement.MeasurementResult` metrics as a
cross-check; :mod:`repro.obs.replay` turns a recorded JSONL trace back
into per-round summaries (the ``repro trace`` CLI subcommand).
"""

from repro.obs.counters import ObsCounters
from repro.obs.events import (
    DROP_REASONS,
    EV_ACCEPTED,
    EV_CELL_CACHE_HIT,
    EV_CELL_FINISH,
    EV_CELL_START,
    EV_CRASH,
    EV_DELIVERED,
    EV_DROPPED,
    EV_FLOOD_SENT,
    EV_GOSSIP_SENT,
    EV_HEAL,
    EV_PARTITION,
    EV_PARTITION_HEAL,
    EV_ROUND_START,
    EV_RUN_END,
    EV_RUN_START,
    EV_SWEEP_END,
    EV_SWEEP_START,
    EVENT_TYPES,
)
from repro.obs.replay import TraceSummary, read_trace, summarize
from repro.obs.sinks import JsonlSink, MemorySink, PrometheusSink
from repro.obs.tracer import Tracer

__all__ = [
    "DROP_REASONS",
    "EVENT_TYPES",
    "EV_ACCEPTED",
    "EV_CELL_CACHE_HIT",
    "EV_CELL_FINISH",
    "EV_CELL_START",
    "EV_CRASH",
    "EV_DELIVERED",
    "EV_DROPPED",
    "EV_FLOOD_SENT",
    "EV_GOSSIP_SENT",
    "EV_HEAL",
    "EV_PARTITION",
    "EV_PARTITION_HEAL",
    "EV_ROUND_START",
    "EV_RUN_END",
    "EV_RUN_START",
    "EV_SWEEP_END",
    "EV_SWEEP_START",
    "JsonlSink",
    "MemorySink",
    "ObsCounters",
    "PrometheusSink",
    "TraceSummary",
    "Tracer",
    "read_trace",
    "summarize",
]
