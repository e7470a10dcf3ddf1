"""Tests for dynamic membership running over the multicast layer.

Membership is an input to the one DES host: a plan with churn tokens
makes :class:`repro.des.cluster._Cluster` a CA-certified, dynamic group.
These tests drive it by hand — run the virtual clock, multicast, read
each member's view.
"""

import pytest

from repro.des.cluster import ClusterConfig, _Cluster

ROUND_MS = 50.0


def _cluster(faults, n=6):
    config = ClusterConfig(
        protocol="drum", n=n, malicious_fraction=0.0, loss=0.0,
        round_duration_ms=ROUND_MS, latency_range_ms=(0.5, 1.5),
        faults=faults,
    )
    cluster = _Cluster(config, seed=1)
    cluster.start()
    return cluster


def run_to(cluster, rounds):
    """Run the virtual clock to the end of fault round ``rounds``."""
    cluster.clock.run_until(rounds * ROUND_MS)


def reached(cluster, mid, members):
    return set(members) <= cluster.log.receivers[mid]


class TestBootstrap:
    def test_initial_membership_complete(self):
        cluster = _cluster("join@4:0.2")
        try:
            for pid, node in cluster.nodes.items():
                known = set(node.known_members()) | {pid}
                assert known == set(cluster.nodes)
        finally:
            cluster.stop()

    def test_initial_multicast_reaches_everyone(self):
        cluster = _cluster("join@30:0.2")
        try:
            mid = cluster.multicast_tracked(0, b"hello")
            run_to(cluster, 20)
            assert reached(cluster, mid, cluster.nodes)
        finally:
            cluster.stop()

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(n=1, faults="join@4:0.5")


class TestJoins:
    NEWCOMER = 6  # the first id above the initial group of six

    def test_join_event_spreads_via_multicast(self):
        cluster = _cluster("join@4:0.2")
        try:
            run_to(cluster, 28)
            # Every old member learned about the newcomer through gossip.
            learned = [
                pid
                for pid, node in cluster.nodes.items()
                if pid != self.NEWCOMER
                and self.NEWCOMER in node.known_members()
            ]
            assert self.NEWCOMER in cluster.nodes
            assert len(learned) == len(cluster.nodes) - 1
        finally:
            cluster.stop()

    def test_newcomer_receives_multicasts(self):
        cluster = _cluster("join@4:0.2")
        try:
            run_to(cluster, 13)
            mid = cluster.multicast_tracked(0, b"post-join")
            run_to(cluster, 38)
            assert self.NEWCOMER in cluster.log.receivers[mid]
        finally:
            cluster.stop()

    def test_newcomer_can_multicast(self):
        cluster = _cluster("join@4:0.2")
        try:
            run_to(cluster, 13)
            mid = cluster.multicast_tracked(self.NEWCOMER, b"from-newcomer")
            run_to(cluster, 38)
            assert reached(cluster, mid, cluster.nodes)
        finally:
            cluster.stop()


class TestLeaves:
    LEAVER = 5  # leave victims come from the top of the correct ids

    def test_leave_event_removes_from_views(self):
        cluster = _cluster("leave@4:0.2")
        try:
            run_to(cluster, 28)
            assert self.LEAVER not in cluster.nodes
            for pid, node in cluster.nodes.items():
                assert self.LEAVER not in node.known_members(), pid
        finally:
            cluster.stop()

    def test_multicast_survives_churn(self):
        """Joins and leaves mid-stream do not break dissemination."""
        cluster = _cluster("leave@4:0.125; join@4:0.125", n=8)
        try:
            run_to(cluster, 13)
            assert 7 not in cluster.nodes and 8 in cluster.nodes
            mid = cluster.multicast_tracked(0, b"amid-churn")
            run_to(cluster, 43)
            assert reached(cluster, mid, cluster.nodes)
        finally:
            cluster.stop()

    def test_left_node_stops_gossiping(self):
        cluster = _cluster("leave@4:0.2")
        try:
            run_to(cluster, 3)  # the leave fires at round 4's boundary
            leaver = cluster.departed[self.LEAVER]
            rounds_at_leave = leaver.node.round_no
            run_to(cluster, 13)
            assert not leaver.running
            assert leaver.node.round_no == rounds_at_leave
        finally:
            cluster.stop()


class TestEventsApplied:
    def test_event_counters_track_changes(self):
        cluster = _cluster("join@4:0.2")
        try:
            run_to(cluster, 28)
            appliers = [
                pid for pid, node in cluster.nodes.items()
                if node.events_applied > 0
            ]
            assert len(appliers) >= len(cluster.nodes) - 2
        finally:
            cluster.stop()
