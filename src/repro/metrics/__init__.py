"""The paper's DoS-impact quantification methodology.

The paper's central methodological contribution is *metrics for
DoS-resistance*: how much does an attack of a given strength and extent
degrade latency and throughput?  This package computes those metrics
from simulation trajectories (:mod:`repro.sim`) and measurement records
(:mod:`repro.des` / :mod:`repro.aio`):

- :mod:`repro.metrics.latency` — propagation times, per-process delivery
  latency summaries and their CDFs (Figures 3, 7–9, 11);
- :mod:`repro.metrics.throughput` — received-throughput with warm-up /
  cool-down trimming (Figure 10);
- :mod:`repro.metrics.cdf` — coverage and latency CDF construction
  (Figures 5, 11, 13, 14);
- :mod:`repro.metrics.stats` — run statistics and the linearity fits
  used to verify the asymptotic claims (Figure 4, Corollaries 1–2);
- :mod:`repro.metrics.dos_resistance` — the headline summary: how
  propagation degrades as attack strength/extent grows, and whether
  focusing an attack pays off for the adversary.
"""

from repro.metrics.cdf import coverage_cdf, empirical_cdf
from repro.metrics.latency import LatencySummary, summarize_latencies
from repro.metrics.report import SeriesReport
from repro.metrics.stats import SeriesStats, linear_fit, summarize_runs
from repro.metrics.throughput import ThroughputSummary, received_throughput
from repro.metrics.dos_resistance import (
    DoSImpactReport,
    adversary_best_extent,
    dos_impact,
)

__all__ = [
    "DoSImpactReport",
    "LatencySummary",
    "SeriesReport",
    "SeriesStats",
    "ThroughputSummary",
    "adversary_best_extent",
    "coverage_cdf",
    "dos_impact",
    "empirical_cdf",
    "linear_fit",
    "received_throughput",
    "summarize_latencies",
    "summarize_runs",
]
