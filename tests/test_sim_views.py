"""The shared gossip-view kernel (:mod:`repro.sim.views`).

Seeded bytes of both vectorised engines depend on the kernel handing
every row the integers the engines' own sort-based loops used to hand
it, so those loops are kept here, verbatim, as the reference.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Scenario, run_fast, run_mega
from repro.sim.views import draw_views, draw_views_from_pool


# ---------------------------------------------------------------------------
# reference: the loops sim.fast carried before the kernel was shared
# ---------------------------------------------------------------------------

def reference_views(rng, runs, senders, n, v):
    """(runs, S, v) gossip targets: uniform, self-free, distinct per row."""
    if v * (v - 1) >= n - 1:
        keys = rng.random((runs, len(senders), n - 1))
        targets = np.argsort(keys, axis=2)[:, :, :v]
        targets += targets >= senders[None, :, None]
        return targets
    targets = rng.integers(0, n - 1, size=(runs, len(senders), v))
    targets += targets >= senders[None, :, None]
    if v > 1:
        while True:
            ordered = np.sort(targets, axis=2)
            dup_rows = (ordered[:, :, 1:] == ordered[:, :, :-1]).any(axis=2)
            if not dup_rows.any():
                break
            redraw = rng.integers(0, n - 1, size=(int(dup_rows.sum()), v))
            sender_of_row = np.broadcast_to(
                senders[None, :], dup_rows.shape
            )[dup_rows]
            redraw += redraw >= sender_of_row[:, None]
            targets[dup_rows] = redraw
    return targets


def reference_views_from_pool(rng, r_count, sender_ids, pool, v):
    """(runs, S, v) gossip targets drawn from a membership pool."""
    k = len(pool)
    pos = np.searchsorted(pool, sender_ids)
    in_pool = (pos < k) & (pool[np.minimum(pos, k - 1)] == sender_ids)
    high = k - in_pool.astype(np.int64)
    if v * (v - 1) >= int(high.min()) - 1:
        keys = rng.random((r_count, len(sender_ids), k))
        rows = np.flatnonzero(in_pool)
        if len(rows):
            keys[:, rows, pos[rows]] = np.inf
        idx = np.argsort(keys, axis=2)[:, :, :v]
        return pool[idx]
    idx = rng.integers(
        0, high[None, :, None], size=(r_count, len(sender_ids), v)
    )
    idx += in_pool[None, :, None] & (idx >= pos[None, :, None])
    if v > 1:
        while True:
            ordered = np.sort(idx, axis=2)
            dup_rows = (ordered[:, :, 1:] == ordered[:, :, :-1]).any(axis=2)
            if not dup_rows.any():
                break
            count = int(dup_rows.sum())
            high_of = np.broadcast_to(high[None, :], dup_rows.shape)[dup_rows]
            redraw = rng.integers(0, high_of[:, None], size=(count, v))
            pos_of = np.broadcast_to(pos[None, :], dup_rows.shape)[dup_rows]
            inp_of = np.broadcast_to(in_pool[None, :], dup_rows.shape)[dup_rows]
            redraw += inp_of[:, None] & (redraw >= pos_of[:, None])
            idx[dup_rows] = redraw
    return pool[idx]


def stacked(draw, rng, runs, senders, *args):
    """``draw`` over the fast engine's (runs, S) grid, stacked into rows."""
    rows = draw(rng, np.tile(senders, runs), *args)
    return rows.reshape(runs, len(senders), -1)


@st.composite
def groups(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    v = draw(st.integers(min_value=0, max_value=min(n - 1, 6)))
    senders = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=1, max_size=n, unique=True,
        )
    )
    runs = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return n, v, np.array(sorted(senders)), runs, seed


class TestSameIntegersAsTheSortBasedLoops:
    @given(group=groups())
    @settings(max_examples=150, deadline=None)
    def test_draw_views(self, group):
        n, v, senders, runs, seed = group
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = stacked(draw_views, a, runs, senders, n, v)
        assert np.array_equal(got, reference_views(b, runs, senders, n, v))
        assert a.random() == b.random()  # same stream position after

    @given(group=groups(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_draw_views_from_pool(self, group, data):
        # Pool and senders overlap only in part: some senders are in the
        # pool (and skip themselves), some have been dropped from it.
        n, v, senders, runs, seed = group
        members = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n + 10),
                min_size=v + 1, max_size=n + 11, unique=True,
            )
        )
        pool = np.array(sorted(members))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = stacked(draw_views_from_pool, a, runs, senders, pool, v)
        assert np.array_equal(
            got, reference_views_from_pool(b, runs, senders, pool, v)
        )
        assert a.random() == b.random()
        assert np.isin(got, pool).all()
        assert (got != senders[None, :, None]).all()


class TestFanOutEdges:
    def test_more_targets_than_other_members_raises(self):
        # Used to return n-1 columns: the permutation branch sliced
        # past the end of its keys.
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="group of 5 is too small"):
            draw_views(rng, np.arange(5), 5, 6)

    def test_more_targets_than_pool_candidates_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="membership view too small"):
            draw_views_from_pool(rng, np.arange(5), np.arange(5), 5)

    @pytest.mark.parametrize("engine", [run_fast, run_mega])
    def test_engines_refuse_a_group_smaller_than_the_fan_out(self, engine):
        tiny = Scenario(protocol="push", n=4, fan_out=4)
        with pytest.raises(ValueError, match="group of 4 is too small"):
            engine(tiny, 2, seed=1)
        churned = Scenario(
            protocol="push", n=4, fan_out=4, faults="join@2:0.5"
        )
        with pytest.raises(ValueError, match="too small"):
            engine(churned, 2, seed=1)

    def test_no_targets(self):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        ids = np.arange(7)
        assert draw_views(a, ids, 7, 0).shape == (7, 0)
        assert draw_views_from_pool(a, ids, ids, 0).shape == (7, 0)
        assert a.random() == b.random()  # nothing drawn

    def test_one_target_is_one_pass(self):
        rng = CountingGenerator(4)
        views = draw_views(rng, np.arange(9), 9, 1)
        assert views.shape == (9, 1)
        assert (views[:, 0] != np.arange(9)).all()
        assert rng.integer_shapes == [(9, 1)]
        rng = CountingGenerator(4)
        views = draw_views_from_pool(rng, np.arange(9), np.arange(2, 30), 1)
        assert rng.integer_shapes == [(9, 1)]
        assert (views[:, 0] != np.arange(9)).all()


class CountingGenerator:
    """A seeded ``Generator`` that records the shape of every draw."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.integer_shapes = []

    def integers(self, low, high, size):
        self.integer_shapes.append(tuple(size))
        return self._rng.integers(low, high, size=size)

    def random(self, size=None):
        return self._rng.random(size)


class TestWorkDone:
    """A pass after the first costs the rows it redraws, not the rows
    the draw holds."""

    ROWS, N, V = 50_000, 1000, 4

    def draws(self):
        senders = np.arange(self.ROWS) % self.N
        yield draw_views, senders, (self.N, self.V)
        yield draw_views_from_pool, senders, (np.arange(self.N), self.V)

    def test_later_passes_draw_only_the_rows_still_repeating(self):
        for draw, senders, args in self.draws():
            rng = CountingGenerator(5)
            draw(rng, senders, *args)
            first, *later = rng.integer_shapes
            assert first == (self.ROWS, self.V)
            # ≈ 0.6 % of rows repeat a target at v = 4, n = 1000.
            assert later and later[0][0] < self.ROWS // 50
            redrawn = [rows for rows, _ in later]
            assert redrawn == sorted(redrawn, reverse=True)
            assert all(v == self.V for _, v in later)
            # The sort-based loop redraws the same rows, pass for pass.
            ref = CountingGenerator(5)
            reference = (
                reference_views if draw is draw_views
                else reference_views_from_pool
            )
            reference(ref, 1, senders, *args)
            assert ref.integer_shapes[1:] == later

    def test_peak_memory_holds_no_sorted_copy(self):
        # The pool form holds pool positions and returns ``pool[idx]``:
        # one copy more by construction.
        for (draw, senders, args), copies in zip(self.draws(), (2, 3)):
            rng = np.random.default_rng(6)
            tracemalloc.start()
            try:
                views = draw(rng, senders, *args)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert views.shape == (self.ROWS, self.V)
            # Sorting every row to find repeats made a third copy.
            assert peak < copies * views.nbytes
