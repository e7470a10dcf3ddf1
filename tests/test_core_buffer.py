"""Tests for repro.core.buffer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataMessage, Digest, MessageBuffer


def _msg(i, source=0):
    return DataMessage(msg_id=(source, i), source=source, payload=b"p")


class TestMessageBuffer:
    def test_add_and_contains(self):
        buf = MessageBuffer(purge_rounds=5, seed=0)
        assert buf.add(_msg(1))
        assert (0, 1) in buf
        assert len(buf) == 1

    def test_duplicate_add_refused(self):
        buf = MessageBuffer(purge_rounds=5, seed=0)
        buf.add(_msg(1))
        assert not buf.add(_msg(1))
        assert len(buf) == 1

    def test_purge_after_lifetime(self):
        buf = MessageBuffer(purge_rounds=3, seed=0)
        buf.add(_msg(1))
        for _ in range(2):
            assert buf.tick_round() == []
        expired = buf.tick_round()
        assert expired == [(0, 1)]
        assert len(buf) == 0
        assert buf.purged_total == 1

    def test_tick_ages_round_counters(self):
        buf = MessageBuffer(purge_rounds=10, seed=0)
        buf.add(_msg(1))
        buf.tick_round()
        buf.tick_round()
        assert buf.get((0, 1)).round_counter == 2

    def test_age_of(self):
        buf = MessageBuffer(purge_rounds=10, seed=0)
        buf.add(_msg(1))
        buf.tick_round()
        assert buf.age_of((0, 1)) == 1
        assert buf.age_of((9, 9)) is None

    def test_digest_covers_contents(self):
        buf = MessageBuffer(purge_rounds=5, seed=0)
        buf.add(_msg(1))
        buf.add(_msg(2))
        digest = buf.digest()
        assert (0, 1) in digest and (0, 2) in digest

    def test_missing_from_digest(self):
        buf = MessageBuffer(purge_rounds=5, seed=0)
        for i in range(4):
            buf.add(_msg(i))
        peer_digest = Digest.of([(0, 0), (0, 1)])
        missing = buf.messages_missing_from(peer_digest)
        assert {m.msg_id for m in missing} == {(0, 2), (0, 3)}

    def test_missing_respects_limit(self):
        buf = MessageBuffer(purge_rounds=5, seed=0)
        for i in range(20):
            buf.add(_msg(i))
        missing = buf.messages_missing_from(Digest.of([]), limit=5)
        assert len(missing) == 5

    def test_limit_selection_is_random(self):
        picks = set()
        for seed in range(30):
            buf = MessageBuffer(purge_rounds=5, seed=seed)
            for i in range(20):
                buf.add(_msg(i))
            chosen = buf.messages_missing_from(Digest.of([]), limit=1)
            picks.add(chosen[0].msg_id)
        assert len(picks) > 3

    def test_invalid_purge_rounds(self):
        with pytest.raises(ValueError):
            MessageBuffer(purge_rounds=0)

    @given(
        adds=st.lists(st.integers(min_value=0, max_value=30), max_size=25),
        ticks=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_buffer_never_holds_expired_messages(self, adds, ticks):
        """Invariant: everything buffered is younger than purge_rounds."""
        buf = MessageBuffer(purge_rounds=4, seed=1)
        for i in adds:
            buf.add(_msg(i))
        for _ in range(ticks):
            buf.tick_round()
        for message in buf.all_messages():
            assert buf.age_of(message.msg_id) < 4

    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_digest_matches_contents_exactly(self, ids):
        buf = MessageBuffer(purge_rounds=5, seed=2)
        for i in ids:
            buf.add(_msg(i))
        digest = buf.digest()
        assert set(digest.message_ids) == {m.msg_id for m in buf.all_messages()}
        assert len(buf.messages_missing_from(digest)) == 0


class EagerBuffer:
    """Reference model: every tick ages every message (Section 8.1 read literally)."""

    def __init__(self, purge_rounds):
        self.purge_rounds, self.purged_total = purge_rounds, 0
        self.rows = {}  # msg_id -> [round_counter, age, lifetime]

    def add(self, message, ttl=None):
        self.rows.setdefault(
            message.msg_id, [message.round_counter, 0, ttl or self.purge_rounds]
        )

    def tick_round(self):
        for row in self.rows.values():
            row[0] += 1
            row[1] += 1
        expired = [mid for mid, row in self.rows.items() if row[1] >= row[2]]
        for mid in expired:
            del self.rows[mid]
        self.purged_total += len(expired)
        return expired


_buffer_ops = st.one_of(
    st.tuples(
        st.just("add"), st.integers(0, 12),
        st.one_of(st.none(), st.integers(1, 7)), st.integers(0, 3),
    ),
    st.tuples(st.just("tick")),
    st.tuples(st.just("get"), st.integers(0, 12)),
    st.tuples(st.just("missing"), st.sets(st.integers(0, 12))),
)


class TestLazyHopCounters:
    @given(ops=st.lists(_buffer_ops, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_eager_model(self, ops):
        buf, model = MessageBuffer(purge_rounds=3, seed=4), EagerBuffer(3)
        for op in ops:
            if op[0] == "add":
                message = DataMessage(
                    msg_id=(0, op[1]), source=0, payload=b"p",
                    round_counter=op[3],
                )
                assert buf.add(message, ttl=op[2]) == (
                    message.msg_id not in model.rows
                )
                model.add(message, ttl=op[2])
            elif op[0] == "tick":
                assert buf.tick_round() == model.tick_round()
            elif op[0] == "get":
                got, row = buf.get((0, op[1])), model.rows.get((0, op[1]))
                assert (got and got.round_counter) == (row and row[0])
            else:
                have = Digest.of((0, i) for i in op[1])
                assert [
                    (m.msg_id, m.round_counter)
                    for m in buf.messages_missing_from(have)
                ] == [
                    (mid, row[0]) for mid, row in model.rows.items()
                    if mid not in have
                ]
            assert [
                (m.msg_id, m.round_counter, buf.age_of(m.msg_id))
                for m in buf.all_messages()
            ] == [(mid, row[0], row[1]) for mid, row in model.rows.items()]
            assert buf.purged_total == model.purged_total
            assert buf.digest() == Digest.of(model.rows)
            assert len(buf) == len(model.rows)

    def test_limit_draws_once_over_the_missing_in_insertion_order(self):
        buf = MessageBuffer(purge_rounds=9, seed=np.random.default_rng(5))
        for i in range(8):
            buf.add(_msg(i))
            buf.tick_round()
        twin = np.random.default_rng(5)
        missing = [i for i in range(8) if i not in (2, 5)]
        picked = buf.messages_missing_from(
            Digest.of([(0, 2), (0, 5)]), limit=3
        )
        idx = twin.choice(len(missing), size=3, replace=False)
        assert [m.msg_id[1] for m in picked] == [missing[i] for i in idx]
        assert [m.round_counter for m in picked] == [
            8 - m.msg_id[1] for m in picked
        ]

    def test_a_quiet_tick_builds_no_messages(self, monkeypatch):
        buf = MessageBuffer(purge_rounds=5, seed=0)
        stored = [_msg(i) for i in range(50)]
        for message in stored:
            buf.add(message)
        built = []
        init = DataMessage.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(DataMessage, "__init__", counting_init)
        digest = buf.digest()
        for _ in range(4):
            assert buf.tick_round() == []
        assert built == []
        assert all(a is b for a, b in zip(buf._messages.values(), stored))
        assert buf.digest() is digest  # nothing expired: cache kept
        # Work is paid where a message leaves: one copy per message sent.
        sent = buf.messages_missing_from(Digest.of([(0, 0)]), limit=3)
        assert len(built) == len(sent) == 3
        assert {m.round_counter for m in sent} == {4}
        assert len(buf.tick_round()) == 50
