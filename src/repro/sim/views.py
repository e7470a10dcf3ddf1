"""Gossip-view draws for the vectorised engines.

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
"""

from __future__ import annotations

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
