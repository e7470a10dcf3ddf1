"""Measurement records and results for cluster experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.metrics.cdf import empirical_cdf
from repro.metrics.latency import (
    mean_latency_per_process,
    propagation_round_percentile,
)
from repro.metrics.throughput import ThroughputSummary, received_throughput

MessageId = Tuple[int, int]


@dataclass(frozen=True)
class DeliveryRecord:
    """One delivery of one message at one process."""

    receiver: int
    msg_id: MessageId
    delivered_at_ms: float
    latency_ms: float
    round_counter: int


class DeliveryLog:
    """The tracked-message log every cluster host appends to.

    :meth:`sent` starts tracking a message (the source logs it at
    latency 0, hop counter 0, because the id only becomes trackable once
    minted); :meth:`delivered` is the nodes' ``on_deliver`` callback.
    Each appends a :class:`DeliveryRecord` and, with a tracer, emits the
    matching ``delivered`` event, so traced runs reconcile against the
    log by construction.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.created_at: Dict[MessageId, float] = {}
        self.deliveries: List[DeliveryRecord] = []
        #: msg_id -> receivers that delivered it (incremental, so a
        #: delivery wait polls in O(1) instead of scanning the log).
        self.receivers: Dict[MessageId, Set[int]] = {}

    def sent(self, source: int, msg_id: MessageId, now: float) -> None:
        self.created_at[msg_id] = now
        self.receivers[msg_id] = {source}
        self.deliveries.append(
            DeliveryRecord(
                receiver=source,
                msg_id=msg_id,
                delivered_at_ms=now,
                latency_ms=0.0,
                round_counter=0,
            )
        )
        if self.tracer is not None:
            self.tracer.delivered(node=source, via="source", t=now)

    def delivered(self, pid: int, message, now: float) -> None:
        created = self.created_at.get(message.msg_id)
        if created is None:
            return  # background traffic outside the measured stream
        self.deliveries.append(
            DeliveryRecord(
                receiver=pid,
                msg_id=message.msg_id,
                delivered_at_ms=now,
                latency_ms=now - created,
                round_counter=message.round_counter,
            )
        )
        self.receivers[message.msg_id].add(pid)
        if self.tracer is not None:
            self.tracer.delivered(
                node=pid, t=now, round_counter=message.round_counter
            )


@dataclass
class MeasurementResult:
    """Everything a cluster experiment produced."""

    protocol: str
    n: int
    correct_receivers: List[int]
    send_rate: float
    messages_sent: int
    experiment_start_ms: float
    experiment_end_ms: float
    deliveries: List[DeliveryRecord] = field(default_factory=list)
    #: Receivers that could possibly get the stream given the injected
    #: faults (not crashed for good, not stranded by an unhealed
    #: partition); None on faultless experiments, where every correct
    #: receiver is reachable.
    reachable_receivers: Optional[List[int]] = None
    #: The fault plan's spec string (``FaultPlan.describe()``), for
    #: reports; None on faultless experiments.
    faults: Optional[str] = None
    #: Churn-aware metrics (:func:`repro.des.churn.churn_metrics`) when
    #: the plan has churn tokens: the resolved membership ``timeline``
    #: (the cross-stack determinism witness), realised ``join_latency``
    #: and ``view_convergence`` in
    #: rounds, and joined/left/expelled counts.  None on churn-free
    #: experiments, keeping their envelopes byte-unchanged.
    churn: Optional[Dict[str, object]] = None

    # -- throughput (Figure 10) -----------------------------------------------

    def throughput(self) -> ThroughputSummary:
        """Average received throughput at each correct receiver.

        Computed as distinct messages delivered divided by the stream
        duration.  In steady state this equals the paper's
        trimmed-window rate (the paper streams 10,000 messages over
        250 s, so its pipeline fill/drain is negligible); for the
        shorter default streams here it avoids the fill/drain bias while
        measuring the same thing — how much of the offered load each
        receiver actually gets.  Lost (purged-before-delivery) messages
        lower it below the send rate exactly as in Figure 10.
        """
        window_sec = (self.experiment_end_ms - self.experiment_start_ms) / 1000.0
        if window_sec <= 0:
            raise ValueError("empty experiment window")
        distinct: Dict[int, set] = {pid: set() for pid in self.correct_receivers}
        for record in self.deliveries:
            if record.receiver in distinct:
                distinct[record.receiver].add(record.msg_id)
        per_process = {
            pid: len(ids) / window_sec for pid, ids in distinct.items()
        }
        rates = np.array(list(per_process.values()))
        if rates.size == 0:
            raise ValueError("no receivers to compute throughput over")
        return ThroughputSummary(
            mean_msgs_per_sec=float(rates.mean()),
            min_msgs_per_sec=float(rates.min()),
            max_msgs_per_sec=float(rates.max()),
            per_process=per_process,
        )

    def windowed_throughput(self, *, trim_fraction: float = 0.05) -> ThroughputSummary:
        """The paper's literal trimmed-window rate (best for long streams)."""
        times: Dict[int, List[float]] = {pid: [] for pid in self.correct_receivers}
        for record in self.deliveries:
            if record.receiver in times:
                times[record.receiver].append(record.delivered_at_ms)
        return received_throughput(
            times,
            self.experiment_start_ms,
            self.experiment_end_ms,
            trim_fraction=trim_fraction,
        )

    # -- latency (Figure 11) ------------------------------------------------------

    def latencies_by_process(self) -> Dict[int, List[float]]:
        """Raw delivery latencies grouped by receiver."""
        out: Dict[int, List[float]] = {pid: [] for pid in self.correct_receivers}
        for record in self.deliveries:
            if record.receiver in out:
                out[record.receiver].append(record.latency_ms)
        return out

    def mean_latency_cdf(self) -> Tuple[np.ndarray, np.ndarray]:
        """CDF over per-process average latencies (Figure 11's axes)."""
        means = mean_latency_per_process(self.latencies_by_process())
        return empirical_cdf(list(means.values()))

    # -- propagation in rounds (Figure 9) --------------------------------------------

    def logged_rounds_for(self, msg_id: MessageId) -> np.ndarray:
        """Each correct receiver's logged hop counter for one message.

        Processes that never received it contribute NaN (censored).
        """
        by_receiver: Dict[int, float] = {
            pid: float("nan") for pid in self.correct_receivers
        }
        for record in self.deliveries:
            if record.msg_id == msg_id and record.receiver in by_receiver:
                by_receiver[record.receiver] = record.round_counter
        return np.array([by_receiver[pid] for pid in self.correct_receivers])

    def propagation_rounds(self, msg_id: MessageId, fraction: float = 0.99) -> float:
        """Rounds for the message to reach ``fraction`` of correct receivers."""
        return propagation_round_percentile(
            self.logged_rounds_for(msg_id), fraction
        )

    def delivery_ratio(self) -> float:
        """Fraction of (message, receiver) pairs actually delivered."""
        possible = self.messages_sent * len(self.correct_receivers)
        if possible == 0:
            return 0.0
        delivered = sum(
            1 for r in self.deliveries if r.receiver in set(self.correct_receivers)
        )
        return delivered / possible

    # -- graceful degradation under faults ----------------------------------

    def residual_reliability(self) -> float:
        """Delivery ratio counted only over *reachable* receivers.

        Under a fault plan, receivers that crash for good or end up on
        the wrong side of a never-healing partition cannot possibly get
        the stream; counting them would conflate protocol degradation
        with plain unreachability.  Faultless experiments have
        ``reachable_receivers is None`` and this equals
        :meth:`delivery_ratio`.
        """
        receivers = (
            self.correct_receivers
            if self.reachable_receivers is None
            else self.reachable_receivers
        )
        possible = self.messages_sent * len(receivers)
        if possible == 0:
            return 0.0
        eligible = set(receivers)
        distinct = set()
        for record in self.deliveries:
            if record.receiver in eligible:
                distinct.add((record.receiver, record.msg_id))
        return len(distinct) / possible

    # -- serialisation -------------------------------------------------------

    def to_jsonable(self) -> Dict[str, object]:
        """A JSON-ready summary (per-delivery records are elided)."""
        out: Dict[str, object] = {
            "protocol": self.protocol,
            "n": self.n,
            "correct_receivers": list(self.correct_receivers),
            "send_rate": self.send_rate,
            "messages_sent": self.messages_sent,
            "experiment_start_ms": self.experiment_start_ms,
            "experiment_end_ms": self.experiment_end_ms,
            "deliveries": len(self.deliveries),
            "delivery_ratio": self.delivery_ratio(),
        }
        if self.faults is not None:
            out["faults"] = self.faults
            out["residual_reliability"] = self.residual_reliability()
            if self.reachable_receivers is not None:
                out["reachable_receivers"] = list(self.reachable_receivers)
        if self.churn is not None:
            out["churn"] = dict(self.churn)
        return out

    def to_dict(self) -> Dict[str, object]:
        """The unified versioned result envelope (see ``repro.api``).

        Same ``{schema, version, kind, config, metrics, data}`` layout
        as the round-based results, with the shared metric names:
        ``reliability`` (residual reliability), ``rounds_to_threshold``
        / ``rounds_to_heal`` (None — continuous-time experiments measure
        latency instead), and ``latency_ms`` ``{mean, p99}`` over the
        delivery log.  ``data`` keeps the full per-delivery records, so
        :meth:`from_dict` rebuilds a result supporting every metric.
        """
        latencies = [
            r.latency_ms for r in self.deliveries if r.latency_ms > 0.0
        ]
        latency = None
        if latencies:
            arr = np.asarray(latencies)
            latency = {
                "mean": float(arr.mean()),
                "p99": float(np.percentile(arr, 99)),
            }
        metrics = {
            "reliability": self.residual_reliability(),
            "rounds_to_threshold": None,
            "rounds_to_heal": None,
            "latency_ms": latency,
            "throughput_msgs_per_sec": self.throughput().mean_msgs_per_sec
            if self.correct_receivers
            and self.experiment_end_ms > self.experiment_start_ms
            else None,
        }
        data = {
            "deliveries": [
                [
                    r.receiver,
                    [r.msg_id[0], r.msg_id[1]],
                    r.delivered_at_ms,
                    r.latency_ms,
                    r.round_counter,
                ]
                for r in self.deliveries
            ],
            "reachable_receivers": None
            if self.reachable_receivers is None
            else list(self.reachable_receivers),
            "faults": self.faults,
        }
        if self.churn is not None:
            data["churn"] = dict(self.churn)
        config = {
            "protocol": self.protocol,
            "n": self.n,
            "correct_receivers": list(self.correct_receivers),
            "send_rate": self.send_rate,
            "messages_sent": self.messages_sent,
            "experiment_start_ms": self.experiment_start_ms,
            "experiment_end_ms": self.experiment_end_ms,
        }
        return {
            "schema": "repro.result",
            "version": 1,
            "kind": "measurement",
            "config": config,
            "metrics": metrics,
            "data": data,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MeasurementResult":
        """Rebuild a :class:`MeasurementResult` from :meth:`to_dict`."""
        from repro.sim.results import check_envelope

        check_envelope(data, "measurement")
        config = data["config"]
        body = data["data"]
        return cls(
            protocol=config["protocol"],
            n=config["n"],
            correct_receivers=list(config["correct_receivers"]),
            send_rate=config["send_rate"],
            messages_sent=config["messages_sent"],
            experiment_start_ms=config["experiment_start_ms"],
            experiment_end_ms=config["experiment_end_ms"],
            deliveries=[
                DeliveryRecord(
                    receiver=rec[0],
                    msg_id=(rec[1][0], rec[1][1]),
                    delivered_at_ms=rec[2],
                    latency_ms=rec[3],
                    round_counter=rec[4],
                )
                for rec in body["deliveries"]
            ],
            reachable_receivers=body.get("reachable_receivers"),
            faults=body.get("faults"),
            churn=body.get("churn"),
        )
