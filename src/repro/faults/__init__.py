"""Composable, seed-deterministic fault injection.

One :class:`FaultPlan` — link degradation (Gilbert–Elliott bursty loss,
delay/jitter, reordering, duplication) plus scheduled events (crash /
recover, partition / heal, sender stall) and membership churn (join /
leave / expel, resolved through the Section 10 dynamic-membership
machinery) — is consumed uniformly by the execution stacks: the
round-based engines, the discrete-event cluster, and the asyncio
runtime.  See :mod:`repro.faults.plan` for the model and the
determinism contract.
"""

from repro.faults.gilbert import GilbertElliottModel
from repro.faults.plan import (
    CrashNodes,
    ExpelNodes,
    FaultPlan,
    JoinNodes,
    LeaveNodes,
    LinkFaults,
    Partition,
    SenderStall,
)
from repro.faults.schedule import FD_TIMEOUT_ROUNDS, FaultSchedule

__all__ = [
    "CrashNodes",
    "ExpelNodes",
    "FD_TIMEOUT_ROUNDS",
    "FaultPlan",
    "FaultSchedule",
    "GilbertElliottModel",
    "JoinNodes",
    "LeaveNodes",
    "LinkFaults",
    "Partition",
    "SenderStall",
]
