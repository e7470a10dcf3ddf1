"""Tests for repro.core.message."""

from repro.core import DataMessage, Digest
from repro.core.message import fresh_message_id


class TestFreshMessageId:
    def test_uniqueness(self):
        ids = {fresh_message_id(0) for _ in range(100)}
        assert len(ids) == 100

    def test_carries_source(self):
        assert fresh_message_id(7)[0] == 7


class TestDataMessage:
    def test_aged_increments_counter(self):
        msg = DataMessage(msg_id=(0, 1), source=0, payload=b"x", round_counter=3)
        assert msg.aged().round_counter == 4
        assert msg.round_counter == 3  # immutable original

    def test_aged_preserves_identity_and_signature(self):
        msg = DataMessage(msg_id=(0, 1), source=0, payload=b"x")
        aged = msg.aged()
        assert aged.msg_id == msg.msg_id
        assert aged.signed_body() == msg.signed_body()

    def test_signed_body_excludes_counter(self):
        a = DataMessage(msg_id=(0, 1), source=0, payload=b"x", round_counter=0)
        b = DataMessage(msg_id=(0, 1), source=0, payload=b"x", round_counter=9)
        assert a.signed_body() == b.signed_body()


class TestDigest:
    def test_membership(self):
        digest = Digest.of([(0, 1), (0, 2)])
        assert (0, 1) in digest
        assert (9, 9) not in digest
        assert len(digest) == 2

    def test_missing_from(self):
        digest = Digest.of([(0, 1)])
        missing = digest.missing_from([(0, 1), (0, 2), (0, 3)])
        assert missing == frozenset({(0, 2), (0, 3)})

    def test_empty_digest_misses_everything(self):
        digest = Digest.of([])
        assert digest.missing_from([(1, 1)]) == frozenset({(1, 1)})

