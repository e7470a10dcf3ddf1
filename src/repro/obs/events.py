"""The trace event taxonomy.

Events are plain JSON-serialisable dicts.  Every event carries ``"ev"``
(one of :data:`EVENT_TYPES`) plus a context key — ``"round"`` on the
round-based engines (set by the enclosing ``round_start``; round 0 is
the instant M is created at the source) or ``"t"`` (milliseconds) on the
continuous-time stacks.  Remaining keys by type:

``run_start``
    ``engine`` (``exact`` / ``fast`` / ``des`` / ``aio``) plus config
    echoes (``protocol``, ``n``, ``runs``...).
``round_start``
    Marks the beginning of round ``round``; aggregate engines add
    ``active_runs``.
``gossip_sent``
    One protocol send attempt entering the fabric: ``src``, ``dst``,
    ``port`` (``src = -1`` when the sender is outside the group).
    Aggregate engines emit one event per round with ``count``.
``flood_sent``
    Fabricated attack traffic injected at ``dst``/``port``, ``count``
    messages (pre-loss).
``accepted``
    A channel drain at ``node``/``port``: ``valid`` and ``fabricated``
    messages that won acceptance slots this round.
``dropped``
    Messages that died in transit or in a channel: ``reason`` (see
    :data:`DROP_REASONS`), ``count``, and where known ``node``/``port``
    and the ``valid``/``fabricated`` split.
``delivered``
    ``node`` delivered the tracked message, ``via`` ``"source"`` /
    ``"push"`` / ``"pull"`` where known; aggregate engines use
    ``count`` per round instead of per-node events.
``crash`` / ``heal``
    Scheduled fault transitions: ``nodes`` went down / came back.
``partition`` / ``partition_heal``
    A partition cut activated (``nodes`` = side A) / healed.
``run_end``
    Terminal summary: ``delivered`` (final holder count), ``rounds``.
``sweep_start`` / ``sweep_end``
    Sweep-orchestrator lifecycle (:mod:`repro.sweep`): ``name``,
    ``cells``, ``pending`` on start; ``computed``, ``cache_hits`` on
    end.
``cell_start`` / ``cell_finish``
    One grid cell's evaluation: ``index``, ``series``, ``x`` on start;
    ``index``, ``value``, ``cached`` on finish.
``cell_cache_hit``
    The cell was served without an engine run: ``index`` plus
    ``source`` (``"store"`` — content-addressed hit — or
    ``"manifest"`` — trusted done entry from a prior sweep).
``cache_hit`` / ``cache_miss`` / ``cache_corrupt``
    One :class:`repro.sweep.store.ResultStore` consultation by the
    sweep orchestrator: ``key`` (the content-address) and ``tier``
    (``"npz"`` / ``"envelope"``).  ``cache_corrupt`` is the case that
    used to be silent — an entry exists but failed to decode or
    validate, and the caller fell back to recomputation.

Sharded Monte-Carlo execution annotates re-emitted events with
``shard`` (fast engine) or ``run`` (exact engine) indices; the
annotation order is a pure function of the seed and run count, never of
the worker count.
"""

from __future__ import annotations

EV_RUN_START = "run_start"
EV_ROUND_START = "round_start"
EV_GOSSIP_SENT = "gossip_sent"
EV_FLOOD_SENT = "flood_sent"
EV_ACCEPTED = "accepted"
EV_DROPPED = "dropped"
EV_DELIVERED = "delivered"
EV_CRASH = "crash"
EV_HEAL = "heal"
EV_PARTITION = "partition"
EV_PARTITION_HEAL = "partition_heal"
EV_RUN_END = "run_end"
EV_SWEEP_START = "sweep_start"
EV_SWEEP_END = "sweep_end"
EV_CELL_START = "cell_start"
EV_CELL_CACHE_HIT = "cell_cache_hit"
EV_CELL_FINISH = "cell_finish"
EV_CACHE_HIT = "cache_hit"
EV_CACHE_MISS = "cache_miss"
EV_CACHE_CORRUPT = "cache_corrupt"

#: Every event type a conforming tracer consumer must accept.
EVENT_TYPES = frozenset(
    {
        EV_RUN_START,
        EV_ROUND_START,
        EV_GOSSIP_SENT,
        EV_FLOOD_SENT,
        EV_ACCEPTED,
        EV_DROPPED,
        EV_DELIVERED,
        EV_CRASH,
        EV_HEAL,
        EV_PARTITION,
        EV_PARTITION_HEAL,
        EV_RUN_END,
        EV_SWEEP_START,
        EV_SWEEP_END,
        EV_CELL_START,
        EV_CELL_CACHE_HIT,
        EV_CELL_FINISH,
        EV_CACHE_HIT,
        EV_CACHE_MISS,
        EV_CACHE_CORRUPT,
    }
)

#: Why a message died.
#:
#: ``bound``      channel overflow discard with no attack traffic present
#: ``attack``     channel overflow discard on a flooded channel (valid
#:                messages crowded out by fabricated arrivals)
#: ``loss``       link loss
#: ``partition``  a fault-plan block: partition cut, crashed machine, or
#:                stalled sender uplink
#: ``closed``     dead-lettered at a closed port (e.g. an attacker
#:                guessing at a random port, or a crashed DES node)
#: ``round_end``  unread channel backlog discarded at the round boundary
#:                (Drum's defensive discard)
DROP_REASONS = frozenset(
    {"bound", "attack", "loss", "partition", "closed", "round_end"}
)
