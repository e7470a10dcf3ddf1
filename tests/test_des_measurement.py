"""Unit tests for repro.des.measurement."""

import numpy as np
import pytest

from repro.des.measurement import DeliveryRecord, MeasurementResult


def _result(deliveries, receivers=(1, 2, 3), messages=2):
    return MeasurementResult(
        protocol="drum",
        n=5,
        correct_receivers=list(receivers),
        send_rate=10.0,
        messages_sent=messages,
        experiment_start_ms=0.0,
        experiment_end_ms=10_000.0,
        deliveries=deliveries,
    )


def _record(receiver, msg, t, counter=1, latency=None):
    return DeliveryRecord(
        receiver=receiver,
        msg_id=(0, msg),
        delivered_at_ms=t,
        latency_ms=latency if latency is not None else t,
        round_counter=counter,
    )


class TestThroughput:
    def test_distinct_messages_counted_once(self):
        deliveries = [
            _record(1, 0, 100.0),
            _record(1, 0, 200.0),  # duplicate delivery of msg 0
            _record(1, 1, 300.0),
        ]
        tp = _result(deliveries).throughput()
        assert tp.per_process[1] == pytest.approx(2 / 10.0)

    def test_receivers_without_deliveries_rate_zero(self):
        tp = _result([_record(1, 0, 100.0)]).throughput()
        assert tp.per_process[2] == 0.0
        assert tp.min_msgs_per_sec == 0.0

    def test_non_receiver_deliveries_ignored(self):
        tp = _result([_record(99, 0, 100.0)]).throughput()
        assert tp.mean_msgs_per_sec == 0.0

    def test_empty_window_rejected(self):
        result = _result([])
        result.experiment_end_ms = result.experiment_start_ms
        with pytest.raises(ValueError):
            result.throughput()


class TestLatency:
    def test_grouping(self):
        deliveries = [
            _record(1, 0, 100.0, latency=50.0),
            _record(1, 1, 200.0, latency=70.0),
            _record(2, 0, 150.0, latency=90.0),
        ]
        grouped = _result(deliveries).latencies_by_process()
        assert grouped[1] == [50.0, 70.0]
        assert grouped[2] == [90.0]
        assert grouped[3] == []

    def test_mean_latency_cdf_monotone(self):
        deliveries = [
            _record(1, 0, 100.0, latency=10.0),
            _record(2, 0, 150.0, latency=30.0),
            _record(3, 0, 170.0, latency=20.0),
        ]
        values, fracs = _result(deliveries).mean_latency_cdf()
        assert list(values) == [10.0, 20.0, 30.0]
        assert fracs[-1] == pytest.approx(1.0)


class TestPropagationRounds:
    def test_logged_rounds_with_censoring(self):
        deliveries = [
            _record(1, 0, 100.0, counter=2),
            _record(2, 0, 150.0, counter=4),
            # receiver 3 never got message 0
        ]
        logged = _result(deliveries).logged_rounds_for((0, 0))
        assert logged[0] == 2 and logged[1] == 4
        assert np.isnan(logged[2])

    def test_propagation_percentile(self):
        deliveries = [
            _record(1, 0, 100.0, counter=2),
            _record(2, 0, 150.0, counter=4),
            _record(3, 0, 160.0, counter=5),
        ]
        result = _result(deliveries)
        assert result.propagation_rounds((0, 0), fraction=1.0) == 5
        assert result.propagation_rounds((0, 0), fraction=0.33) == 2
        assert result.propagation_rounds((0, 0), fraction=0.5) == 4

    def test_delivery_ratio(self):
        deliveries = [
            _record(1, 0, 100.0),
            _record(2, 0, 150.0),
            _record(1, 1, 200.0),
        ]
        result = _result(deliveries, messages=2)
        # 3 of 6 possible (message, receiver) pairs.
        assert result.delivery_ratio() == pytest.approx(0.5)

    def test_delivery_ratio_no_messages(self):
        result = _result([], messages=0)
        assert result.delivery_ratio() == 0.0


def test_repr_is_a_summary_not_every_record(monkeypatch):
    # asyncio reprs a finished task's result (this) on teardown; a field
    # repr of a long stream's deliveries ran to megabytes.
    def refuse(self):
        raise AssertionError("a DeliveryRecord was repr'd")

    records = [_record(1 + i % 3, i, float(i)) for i in range(25_000)]
    monkeypatch.setattr(DeliveryRecord, "__repr__", refuse)
    text = repr(_result(records, messages=25_000))
    assert len(text) < 1000
    assert "deliveries=25000" in text
