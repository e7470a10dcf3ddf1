"""Delivery-latency metrics for measurement experiments.

The DES / aio clusters record, per delivered message, the interval
between its creation at the source and its delivery at each receiver.
Figure 11 plots, per process, the *average* latency of the messages it
received; this module summarises those records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

import numpy as np


@dataclass(frozen=True)
class LatencySummary:
    """Latency statistics for one receiver (or one receiver class)."""

    mean_ms: float
    median_ms: float
    p99_ms: float
    std_ms: float
    samples: int

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencySummary":
        arr = np.asarray(samples, dtype=float)
        if arr.size == 0:
            raise ValueError("cannot summarize zero latency samples")
        return cls(
            mean_ms=float(arr.mean()),
            median_ms=float(np.median(arr)),
            p99_ms=float(np.percentile(arr, 99)),
            std_ms=float(arr.std()),
            samples=int(arr.size),
        )


def summarize_latencies(
    per_process: Mapping[int, Sequence[float]]
) -> Dict[int, LatencySummary]:
    """Per-process latency summaries from raw delivery samples."""
    out: Dict[int, LatencySummary] = {}
    for pid, samples in per_process.items():
        if len(samples):
            out[pid] = LatencySummary.from_samples(samples)
    return out


def mean_latency_per_process(
    per_process: Mapping[int, Sequence[float]]
) -> Dict[int, float]:
    """The per-process *average* latency Figure 11 plots a CDF over."""
    return {
        pid: float(np.mean(np.asarray(samples, dtype=float)))
        for pid, samples in per_process.items()
        if len(samples)
    }


def propagation_round_percentile(
    logged_rounds: Sequence[float], fraction: float
) -> float:
    """Round counter by which ``fraction`` of receivers had logged M.

    Implements the Section 8.1 measurement: every receiver logs the
    message's hop/round counter at delivery; the propagation time to
    99 % of the correct processes is the 99th-percentile logged counter.
    NaNs (processes that never received M) sort above every real value.
    """
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    arr = np.asarray(logged_rounds, dtype=float)
    if arr.size == 0:
        raise ValueError("no logged rounds")
    target = int(np.ceil(fraction * arr.size)) - 1
    ordered = np.sort(arr)  # NaNs go last, exactly what censoring needs
    return float(ordered[target])
