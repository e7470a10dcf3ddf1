"""Property-based tests for membership components (hypothesis)."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto import CertificationAuthority, KeyPair
from repro.membership import (
    DynamicMembership,
    ExpelEvent,
    FailureDetector,
    JoinEvent,
    LeaveEvent,
)


class TestFailureDetectorProperties:
    @given(
        events=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),   # peer id
                st.floats(min_value=0, max_value=100),   # time heard
            ),
            max_size=30,
        ),
        check_at=st.floats(min_value=0, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_suspected_iff_silent_past_timeout(self, events, check_at):
        fd = FailureDetector(timeout=10.0)
        last_heard = {}
        for peer, when in sorted(events, key=lambda e: e[1]):
            fd.heard_from(peer, when)
            last_heard[peer] = when
        fd.check(check_at)
        for peer, when in last_heard.items():
            expected = check_at - when > 10.0
            assert fd.is_suspected(peer) == expected, (peer, when, check_at)

    @given(
        cycles=st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=30.0),  # silence length
                st.floats(min_value=0.1, max_value=5.0),   # gap before talk
            ),
            min_size=1, max_size=8,
        )
    )
    # (now + silence) - now rounds to 10.000000000000002 for silence = 10.0.
    @example(cycles=[(2.0, 4.376033901818472), (10.0, 1.0)])
    @settings(max_examples=40, deadline=None)
    def test_suspect_rehabilitate_cycles(self, cycles):
        # A peer alternating silence and speech is suspected exactly
        # while its silence exceeds the timeout, and every fresh word
        # rehabilitates it — no cycle leaves residual suspicion behind.
        fd = FailureDetector(timeout=10.0)
        now = 0.0
        fd.heard_from(1, now)
        for silence, gap in cycles:
            check_at = now + silence
            fd.check(check_at)
            # The detector sees the two timestamps, not ``silence``.
            assert fd.is_suspected(1) == (check_at - now > 10.0)
            now = now + silence + gap
            fd.heard_from(1, now)
            assert not fd.is_suspected(1)
        fd.check(now + 0.5)
        assert not fd.is_suspected(1)

    @given(peers=st.lists(st.integers(min_value=0, max_value=20), max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_responsive_subset_is_subset(self, peers):
        fd = FailureDetector(timeout=1.0)
        for peer in peers[: len(peers) // 2]:
            fd.heard_from(peer, 0.0)
        fd.check(100.0)
        subset = fd.responsive_subset(peers)
        assert set(subset) <= set(peers)
        assert not any(fd.is_suspected(p) for p in subset)


class TestMembershipProperties:
    @given(
        joiners=st.lists(
            st.integers(min_value=1, max_value=50),
            min_size=1, max_size=10, unique=True,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_membership_reflects_exactly_the_joined(self, joiners):
        ca = CertificationAuthority(validity_period=1000.0)
        observer = DynamicMembership(0, ca.public_key)
        observer.join(ca, KeyPair(owner=0).public, now=0.0)
        for pid in joiners:
            service = DynamicMembership(pid, ca.public_key)
            cert = service.join(ca, KeyPair(owner=pid).public, now=0.0)
            observer.handle_event(JoinEvent(pid, cert), now=0.0)
        assert observer.current_members(1.0) == sorted(joiners)

    @given(
        joiners=st.lists(
            st.integers(min_value=1, max_value=50),
            min_size=1, max_size=8, unique=True,
        ),
        repeats=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_duplicate_events_are_idempotent(self, joiners, repeats):
        # Multicast delivers membership events at-least-once per
        # receiver (gossip redundancy); applying any event repeatedly
        # must land on the same database as applying it once.
        ca = CertificationAuthority(validity_period=1000.0)
        observer = DynamicMembership(0, ca.public_key)
        observer.join(ca, KeyPair(owner=0).public, now=0.0)
        events = []
        for pid in joiners:
            service = DynamicMembership(pid, ca.public_key)
            events.append(
                JoinEvent(pid, service.join(ca, KeyPair(owner=pid).public, 0.0))
            )
        leaver = joiners[0]
        cert = ca.current_certificate(leaver)
        ca.revoke(leaver)
        events.append(LeaveEvent(leaver, cert))
        for event in events:
            for _ in range(repeats):
                assert observer.handle_event(event, now=0.0)
        assert observer.current_members(1.0) == sorted(set(joiners) - {leaver})

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_event_order_is_immaterial_for_independent_subjects(self, data):
        # Gossip gives no delivery-order guarantee across subjects:
        # events about *different* members commute, so every
        # interleaving must converge to the same view.
        subjects = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=30),
                min_size=2, max_size=6, unique=True,
            )
        )
        ca = CertificationAuthority(validity_period=1000.0)
        observer = DynamicMembership(0, ca.public_key)
        observer.join(ca, KeyPair(owner=0).public, now=0.0)
        events = []
        expected = set(observer.current_members(0.0))
        for i, pid in enumerate(subjects):
            service = DynamicMembership(pid, ca.public_key)
            cert = service.join(ca, KeyPair(owner=pid).public, now=0.0)
            if i % 3 == 0:
                events.append(JoinEvent(pid, cert))
                expected.add(pid)
            else:
                # Removal subjects are pre-seeded so that exactly one
                # event (the removal) names them in the permuted list.
                observer.install_certificate(cert, now=0.0)
                ca.revoke(pid)
                kind = LeaveEvent if i % 3 == 1 else ExpelEvent
                events.append(kind(pid, cert))
        order = data.draw(st.permutations(range(len(events))))
        for index in order:
            assert observer.handle_event(events[index], now=0.0)
        assert set(observer.current_members(1.0)) == expected

    @given(
        removals=st.lists(
            st.sampled_from(["leave", "expel"]), min_size=1, max_size=4
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_leave_before_join_is_harmless(self, removals):
        ca = CertificationAuthority(validity_period=1000.0)
        observer = DynamicMembership(0, ca.public_key)
        observer.join(ca, KeyPair(owner=0).public, now=0.0)
        before = observer.current_members(1.0)
        service = DynamicMembership(7, ca.public_key)
        cert = service.join(ca, KeyPair(owner=7).public, now=0.0)
        ca.revoke(7)
        for kind in removals:
            event = (LeaveEvent if kind == "leave" else ExpelEvent)(7, cert)
            observer.handle_event(event, now=0.0)
        assert observer.current_members(1.0) == before
        assert observer.rejected_events == 0

    @given(now=st.floats(min_value=0, max_value=5000))
    @settings(max_examples=40, deadline=None)
    def test_no_expired_member_ever_listed(self, now):
        ca = CertificationAuthority(validity_period=100.0)
        observer = DynamicMembership(0, ca.public_key)
        observer.join(ca, KeyPair(owner=0).public, now=0.0)
        service = DynamicMembership(1, ca.public_key)
        cert = service.join(ca, KeyPair(owner=1).public, now=0.0)
        observer.handle_event(JoinEvent(1, cert), now=0.0)
        members = observer.current_members(now)
        if now < 100.0:
            assert members == [1]
        else:
            assert members == []
