"""Attack models and adversary strategies.

The paper's adversary focuses on a fraction ``α`` of the processes and
sends each of them ``x`` fabricated messages per round, for a total
strength ``B = x·α·n``.  This package expresses those attacks
(:class:`~repro.adversary.attacks.AttackSpec`) and injects them into the
simulated network (:class:`~repro.adversary.attacker.RoundAttacker`).
The strategy sweeps of Sections 7.2–7.3 are lists of specs: a fixed
budget spread over each extent is
``[AttackSpec.fixed_budget(B, a, n) for a in alphas]``, and the figure
grids in :mod:`repro.sweep.grid` build them per cell.
"""

from repro.adversary.attacks import AttackSpec, PortLoad
from repro.adversary.attacker import RoundAttacker
from repro.adversary.adaptive import (
    AdaptiveAttacker,
    FrontierAttacker,
    RotatingAttacker,
)
from repro.adversary.snooping import SnoopingAttacker

__all__ = [
    "AdaptiveAttacker",
    "AttackSpec",
    "FrontierAttacker",
    "PortLoad",
    "RotatingAttacker",
    "RoundAttacker",
    "SnoopingAttacker",
]
