"""Property-based tests on simulation invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.adversary import AttackSpec
from repro.sim import Scenario, run_exact, run_fast
from repro.sim.views import draw_views, draw_views_from_pool
from test_sim_views import stacked

protocols = st.sampled_from(
    ["drum", "push", "pull", "drum-no-random-ports", "drum-shared-bounds"]
)


@st.composite
def scenarios(draw):
    protocol = draw(protocols)
    n = draw(st.integers(min_value=12, max_value=60))
    malicious = draw(st.sampled_from([0.0, 0.1]))
    attacked = draw(st.booleans())
    attack = None
    if attacked:
        max_alpha = max(0.05, (1.0 - malicious) * 0.6)
        alpha = draw(st.floats(min_value=1.5 / n, max_value=max_alpha))
        x = draw(st.integers(min_value=0, max_value=64))
        attack = AttackSpec(alpha=alpha, x=float(x))
    return Scenario(
        protocol=protocol,
        n=n,
        malicious_fraction=malicious if attack else 0.0,
        attack=attack,
        max_rounds=150,
    )


class TestFastEngineInvariants:
    @given(scenario=scenarios(), seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_trajectories_are_sane(self, scenario, seed):
        result = run_fast(scenario, runs=3, seed=seed)
        counts = result.counts
        # Monotone non-decreasing: nobody forgets M.
        assert (np.diff(counts, axis=1) >= 0).all()
        # Bounded by the alive correct population.
        assert counts.max() <= scenario.num_alive_correct
        # The source starts alone.
        assert (counts[:, 0] == 1).all()
        # Subset decomposition holds everywhere.
        total = result.counts_attacked + result.counts_non_attacked
        assert (total == counts).all()
        # Attacked subset counts bounded by the attacked population.
        assert result.counts_attacked.max() <= max(1, scenario.num_attacked)

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_no_attack_reaches_everyone(self, seed):
        scenario = Scenario(protocol="drum", n=30, loss=0.0, threshold=1.0)
        result = run_fast(scenario, runs=2, seed=seed)
        assert (result.counts[:, -1] == 30).all()


class TestDrawViewsProperties:
    """The shared view sampler: targets must be self-free, distinct
    within a row, and marginally uniform over the other n-1 group
    members — including the v=1 and v=n-1 corner cases."""

    CASES = [(5, 1), (5, 4), (8, 3), (12, 1), (12, 11), (30, 4), (30, 29)]

    @staticmethod
    def draw(rng, runs, senders, n, v):
        return stacked(draw_views, rng, runs, senders, n, v)

    @pytest.mark.parametrize("n,v", CASES)
    def test_targets_are_self_free(self, n, v):
        rng = np.random.default_rng(100 + n * v)
        senders = np.arange(n)
        targets = self.draw(rng, 200, senders, n, v)
        assert targets.shape == (200, n, v)
        assert (targets != senders[None, :, None]).all()
        assert (targets >= 0).all() and (targets < n).all()

    @pytest.mark.parametrize("n,v", CASES)
    def test_rows_are_distinct(self, n, v):
        rng = np.random.default_rng(200 + n * v)
        targets = self.draw(rng, 200, np.arange(n), n, v)
        ordered = np.sort(targets, axis=2)
        assert (np.diff(ordered, axis=2) > 0).all()

    @pytest.mark.parametrize("n,v", CASES)
    def test_marginally_uniform_over_others(self, n, v):
        # Chi-square on the pooled target histogram of one sender: each
        # of the other n-1 members must be hit equally often.
        rng = np.random.default_rng(300 + n * v)
        draws = 4000
        sender = n // 2
        targets = self.draw(
            rng, draws, np.array([sender]), n, v
        ).ravel()
        observed = np.bincount(targets, minlength=n)
        assert observed[sender] == 0
        others = np.delete(observed, sender)
        if v == n - 1:
            # Degenerate corner: every row is a permutation of the
            # other n-1 members, so each is hit exactly once per draw.
            assert (others == draws).all()
            return
        _, p_value = stats.chisquare(others)
        assert p_value > 1e-4

    def test_full_fanout_rows_cover_everyone(self):
        n = 7
        rng = np.random.default_rng(11)
        targets = self.draw(rng, 50, np.arange(n), n, n - 1)
        expected = np.arange(n)
        for run in range(50):
            for sender in range(n):
                row = set(targets[run, sender])
                assert row == set(expected) - {sender}


class TestDrawViewsFromPoolProperties(TestDrawViewsProperties):
    """The same properties for the churn form, the pool being the
    whole group."""

    @staticmethod
    def draw(rng, runs, senders, n, v):
        return stacked(
            draw_views_from_pool, rng, runs, senders, np.arange(n), v
        )


class TestExactEngineInvariants:
    @given(scenario=scenarios(), seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=12, deadline=None)
    def test_exact_trajectories_are_sane(self, scenario, seed):
        result = run_exact(scenario, seed=seed)
        assert (np.diff(result.counts) >= 0).all()
        assert result.counts.max() <= scenario.num_alive_correct
        assert result.counts[0] == 1
        total = result.counts_attacked + result.counts_non_attacked
        assert (total == result.counts).all()

    @given(seed=st.integers(min_value=0, max_value=10**5))
    @settings(max_examples=8, deadline=None)
    def test_delivery_rounds_consistent_with_counts(self, seed):
        scenario = Scenario(protocol="drum", n=25, loss=0.0, threshold=1.0)
        result = run_exact(scenario, seed=seed)
        # The count at round r equals the number of processes whose
        # delivery round is <= r.
        deliveries = result.delivery_rounds
        for r in range(len(result.counts)):
            expected = int(np.sum(deliveries <= r))
            assert result.counts[r] == expected


class TestAttackSpecProperties:
    @given(
        alpha=st.floats(min_value=0.01, max_value=1.0),
        x=st.floats(min_value=0.0, max_value=1000.0),
        n=st.integers(min_value=10, max_value=2000),
    )
    @settings(max_examples=60, deadline=None)
    def test_budget_identity(self, alpha, x, n):
        spec = AttackSpec(alpha=alpha, x=x)
        assert spec.total_strength(n) == alpha * x * n

    @given(
        budget=st.floats(min_value=1.0, max_value=10000.0),
        alpha=st.floats(min_value=0.05, max_value=1.0),
        n=st.integers(min_value=10, max_value=2000),
    )
    @settings(max_examples=60, deadline=None)
    def test_fixed_budget_roundtrip(self, budget, alpha, n):
        spec = AttackSpec.fixed_budget(budget, alpha, n)
        assert abs(spec.total_strength(n) - budget) < 1e-6 * max(1.0, budget)

    @given(
        alpha=st.floats(min_value=0.01, max_value=1.0),
        x=st.floats(min_value=0.0, max_value=500.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_port_loads_conserve_budget(self, alpha, x):
        from repro.core import ProtocolKind

        spec = AttackSpec(alpha=alpha, x=x)
        for kind in ProtocolKind:
            load = spec.port_load(kind)
            assert abs(load.total - x) < 1e-9
            assert load.push >= 0 and load.pull_request >= 0 and load.pull_reply >= 0
