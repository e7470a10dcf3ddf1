"""Gossip views and round membership for the vectorised engines.

One row per sender: ``v`` targets, uniform over the other members,
self-free and distinct.  :mod:`repro.sim.fast` stacks its ``(runs,
senders)`` grid into rows and :mod:`repro.sim.mega` passes one node
block at a time; both consume the generator in row-major order, so the
integers a row receives depend only on the rows before it.

Rows that repeat a target are found by one compare per pair of columns
(v·(v−1)/2 = 6 for v = 4) and redrawn whole.  A later pass re-checks
only the rows it has just redrawn: the rows still repeating are a
subset of those, in the same order, so no pass sorts or re-reads the
rows already settled.

:class:`Membership` says, round by round, who draws those views, from
which pool, and who may receive (Section 10: churn changes only who is
in a view, never the round).  Both engines run one round loop over it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np


def _repeated_rows(targets: np.ndarray) -> np.ndarray:
    """Bool mask of the rows of ``targets`` that repeat a value."""
    dup = np.zeros(len(targets), dtype=bool)
    for i in range(targets.shape[1] - 1):
        for j in range(i + 1, targets.shape[1]):
            dup |= targets[:, i] == targets[:, j]
    return dup


def _distinct_rows(draw, rows: int) -> np.ndarray:
    """``draw(index, count)`` for every row, then again for the rows
    that repeat a value until none does."""
    out = draw(slice(None), rows)
    again = np.flatnonzero(_repeated_rows(out))
    while len(again):
        redraw = draw(again, len(again))
        out[again] = redraw
        again = again[_repeated_rows(redraw)]
    return out


def draw_views(
    rng: np.random.Generator, senders: np.ndarray, n: int, v: int
) -> np.ndarray:
    """``(len(senders), v)`` targets among the ``n - 1`` other members.

    ``senders[i]`` is the id row ``i`` must not pick.
    """
    if v > n - 1:
        raise ValueError(
            f"group of {n} is too small for a combined fan-out of "
            f"{v} distinct targets"
        )
    own = senders[:, None]
    if v * (v - 1) >= n - 1:
        # Dense fan-out: whole-row rejection sampling stalls (for
        # v = n-1 it essentially never terminates), so take the first v
        # entries of a uniform permutation of the other n-1 members —
        # the same uniform ordered v-subset distribution.
        keys = rng.random((len(senders), n - 1))
        targets = np.argsort(keys, axis=1)[:, :v]
        targets += targets >= own
        return targets

    def draw(index, count):
        targets = rng.integers(0, n - 1, size=(count, v))
        # Skip the sender's own id so targets are uniform over the others.
        targets += targets >= own[index]
        return targets

    return _distinct_rows(draw, len(senders))


def draw_views_from_pool(
    rng: np.random.Generator, senders: np.ndarray, pool: np.ndarray, v: int
) -> np.ndarray:
    """``(len(senders), v)`` targets drawn from a membership pool.

    The churn-mode form of :func:`draw_views`: ``pool`` is a sorted id
    array (the current aware-and-responsive membership view) and each
    row excludes its own sender where the pool holds it.
    """
    k = len(pool)
    pos = np.searchsorted(pool, senders)
    in_pool = (pos < k) & (pool[np.minimum(pos, k - 1)] == senders)
    high = k - in_pool.astype(np.int64)  # per-row candidate count
    if np.any(high < v):
        raise ValueError(
            f"membership view too small for {v} distinct gossip targets "
            f"(churn left only {int(high.min())} candidates)"
        )
    if v * (v - 1) >= int(high.min()) - 1:
        # Dense fan-out relative to the pool: permutation draw, with the
        # sender's own slot pushed past every candidate.
        keys = rng.random((len(senders), k))
        rows = np.flatnonzero(in_pool)
        keys[rows, pos[rows]] = np.inf
        return pool[np.argsort(keys, axis=1)[:, :v]]
    high, own, skip = high[:, None], pos[:, None], in_pool[:, None]

    def draw(index, count):
        idx = rng.integers(0, high[index], size=(count, v))
        idx += skip[index] & (idx >= own[index])
        return idx

    return pool[_distinct_rows(draw, len(senders))]


def _id_array(ids) -> np.ndarray:
    return np.fromiter(ids, np.int64, len(ids))


def col_ids(cols) -> np.ndarray:
    """The sender ids behind ``cols`` (a slice on the static path)."""
    if isinstance(cols, slice):
        return np.arange(cols.start, cols.stop)
    return cols


def rows_below(cols, bound: int) -> int:
    """How many of the ascending sender columns ``cols`` (a slice or an
    id array) hold ids below ``bound`` — the attacked senders' rows."""
    if isinstance(cols, slice):
        return max(0, min(cols.stop, bound) - cols.start)
    return int(np.searchsorted(cols, bound))


class Round(NamedTuple):
    """Who takes part in one round.

    ``cols`` indexes the ascending ids that draw views in a state row:
    a slice on the static path, so the round's gathers stay views, and
    the sender id array under churn (:func:`col_ids` gives the ids).
    ``pool`` is None for the static group (:func:`draw_views` over
    ``width`` ids), else the sorted churn pool
    (:func:`draw_views_from_pool`).  ``receivers`` marks the ids that
    may accept M and ``crashed`` (ids, or None) those asleep.
    ``stall_ok`` is False at stalled ids, which accept but never send
    or reply (None when nobody stalls); ``in_a`` marks the partition's
    side A (None when whole).  ``state_bytes`` is what the churn masks
    and pool this round was resolved from hold (0 on the static path).
    """

    width: int
    cols: object
    pool: Optional[np.ndarray]
    receivers: np.ndarray
    crashed: Optional[np.ndarray]
    stall_ok: Optional[np.ndarray]
    in_a: Optional[np.ndarray]
    state_bytes: int

    def draw(self, rng: np.random.Generator, senders: np.ndarray, v: int):
        """``(len(senders), v)`` view targets from this round's pool."""
        if self.pool is None:
            return draw_views(rng, senders, self.width, v)
        return draw_views_from_pool(rng, senders, self.pool, v)

    def block(self, start: int, stop: int):
        """The columns of this round's senders with ids in
        ``[start, stop)``."""
        if isinstance(self.cols, slice):
            return slice(start, max(start, min(stop, self.cols.stop)))
        lo, hi = np.searchsorted(self.cols, (start, stop))
        return self.cols[lo:hi]


class Membership:
    """The per-round membership both vectorised round loops consume.

    Two models, kept apart because each pins its engine's RNG stream:

    - **static** (no churn tokens): rows are every alive correct id
      ``0 .. num_alive-1``, and crashed or stalled rows are drawn and
      then masked.  Resolved once per schedule state.
    - **churn**: the deterministic awareness-lag model over the
      extended id universe (joiners at ids ``n .. total_n-1``).  Rows
      are the present, uncrashed, unstalled correct ids; targets come
      from ``schedule.aware_targets_at(round, lag)`` with ``lag =
      schedule.awareness_lag(fan_out)``, so a membership event becomes
      visible after the logarithmic delay an epidemic of its record
      needs, and failure-detector suspects leave the pool after
      ``FD_TIMEOUT_ROUNDS`` silent rounds.  The exact engine realises
      the same event sequence with real certificates and detectors;
      this model keeps the sequence and approximates only its jitter.

    It also owns the run bookkeeping both engines share: joiner ids and
    spawn rounds, the ids that can still change state (``nondoomed``),
    the minimum run length, the reachable set and the churn statistics.
    """

    def __init__(self, scenario, schedule):
        n = scenario.n
        num_alive = scenario.num_alive_correct
        self._schedule = schedule
        self.churn = schedule is not None and schedule.has_churn
        self.width = schedule.total_n if self.churn else n
        self._n = n
        self._source = scenario.source
        self._num_alive = num_alive
        # Correct ids: the alive block plus every joiner.  Malicious and
        # crashed-block ids never accept M.
        self._correct = np.zeros(self.width, dtype=bool)
        self._correct[:num_alive] = True
        self._correct[n:] = True
        self._static: dict = {}  # one Round per distinct fault state
        self.lag = 0
        self.min_rounds = 0
        self.joiner_ids = np.arange(n, self.width, dtype=np.int64)
        self.join_rounds = np.zeros(0, dtype=np.int64)
        self.nondoomed: Optional[np.ndarray] = None
        self.reachable: Optional[np.ndarray] = None
        if schedule is None:
            return
        if self.churn:
            self.lag = schedule.awareness_lag(scenario.fan_out)
            # Runs last until every membership event has both fired and
            # propagated, mirroring the exact engine's minimum rounds.
            self.min_rounds = (
                max(e["round"] for e in schedule.churn_timeline()) + self.lag
            )
            # Join blocks are consecutive ascending ids from n.
            blocks = schedule.join_blocks()
            self.join_rounds = np.repeat(
                np.array([at for at, *_ in blocks], dtype=np.int64),
                [count for *_, count in blocks],
            )
        doomed = schedule.doomed_ids(scenario.max_rounds)
        if doomed:
            live = self._correct.copy()
            live[_id_array(doomed)] = False
            self.nondoomed = np.flatnonzero(live)
        self.reachable = np.array(
            sorted(schedule.reachable_ids(scenario.max_rounds)),
            dtype=np.int64,
        )

    def at(self, round_no: int) -> Round:
        """The membership of ``round_no``."""
        schedule = self._schedule
        if self.churn:
            pool = np.fromiter(
                sorted(schedule.aware_targets_at(round_no, self.lag)),
                dtype=np.int64,
            )
            return self._resolve(
                schedule._state(round_no), schedule.present_at(round_no), pool
            )
        state = None if schedule is None else schedule._state(round_no)
        rnd = self._static.get(state)
        if rnd is None:
            rnd = self._static[state] = self._resolve(state)
        return rnd

    def _resolve(self, state, present=None, pool=None) -> Round:
        crashed, stalled, side_a = state or ((), (), None)
        width = self.width
        crashed_ids = _id_array(crashed) if crashed else None
        stall_ok = None
        if stalled:
            stall_ok = np.ones(width, dtype=bool)
            stall_ok[_id_array(stalled)] = False
        in_a = None
        if side_a is not None:
            # Joiners sit with the source's side of the split, matching
            # the schedule's reachability accounting.
            in_a = np.zeros(width, dtype=bool)
            in_a[_id_array(side_a)] = True
            in_a[self._n:] = in_a[self._source]
        if present is None:
            cols = slice(0, self._num_alive)
            receivers = self._correct
            state_bytes = 0
        else:
            receivers = np.zeros(width, dtype=bool)
            receivers[_id_array(present)] = True
            receivers &= self._correct
            sending = receivers.copy()
            if crashed_ids is not None:
                sending[crashed_ids] = False
            if stall_ok is not None:
                sending &= stall_ok
            cols = np.flatnonzero(sending)
            state_bytes = receivers.nbytes + sending.nbytes + pool.nbytes
        return Round(
            width, cols, pool, receivers, crashed_ids, stall_ok, in_a,
            state_bytes,
        )

    def churn_stats(
        self, deliv: np.ndarray, end_round
    ) -> Optional[np.ndarray]:
        """``[join_latency, view_convergence]`` per run (None without churn).

        ``deliv[..., j]`` is the round joiner ``j`` first held M (-1:
        never) and ``end_round`` each run's last simulated round.  Join
        latency counts joiner-local rounds from 1 (delivery in the spawn
        round is latency 1, the exact engine's per-process clock),
        censored at ``end_round`` and averaged over the joiners still
        reachable at the horizon (NaN without any).  View convergence is
        the awareness model's deterministic ``lag``.
        """
        if not self.churn:
            return None
        end = np.asarray(end_round, dtype=np.float64)
        stats = np.full(end.shape + (2,), np.nan)
        reach = np.isin(self.joiner_ids, self.reachable)
        if reach.any():
            d = deliv[..., reach].astype(np.float64)
            jr = self.join_rounds[reach].astype(np.float64)
            latency = np.where(d >= 0, d - jr, end[..., None] - jr) + 1.0
            stats[..., 0] = np.maximum(latency, 1.0).mean(axis=-1)
        stats[..., 1] = self.lag
        return stats
