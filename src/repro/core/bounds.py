"""Per-round resource accounting.

Drum bounds, separately, how many messages it accepts per round on each
channel: an attack that floods one channel exhausts only that channel's
quota.  The Section 9 "shared bounds" ablation replaces the separate
quotas with one joint quota over the control channels, which is exactly
the configuration this class can also express — and the experiments show
it collapses under attack.

:class:`ResourceBounds` is used by the full node (:mod:`repro.des`);
the round-based simulator expresses the same semantics through
:class:`~repro.net.channel.BoundedChannel` drain bounds.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional


class ResourceBounds:
    """Tracks per-channel acceptance quotas within one round."""

    def __init__(
        self,
        bounds: Mapping[str, int],
        *,
        shared_channels: Iterable[str] = (),
        shared_bound: Optional[int] = None,
    ):
        """``bounds`` maps channel name -> per-round quota.

        Channels listed in ``shared_channels`` ignore their individual
        quota and draw from the single ``shared_bound`` pool instead.
        """
        for name, bound in bounds.items():
            if bound < 0:
                raise ValueError(f"bound for {name!r} must be >= 0, got {bound}")
        shared = set(shared_channels)
        unknown = shared - set(bounds)
        if unknown:
            raise ValueError(f"shared channels not in bounds: {sorted(unknown)}")
        if shared and shared_bound is None:
            raise ValueError("shared_channels given without shared_bound")
        #: channel -> its ``[used, bound]`` cell; the shared channels
        #: hold one cell between them.
        pool = [0, shared_bound]
        self._cells: Dict[str, List[int]] = {
            name: pool if name in shared else [0, bound]
            for name, bound in bounds.items()
        }
        self.rejected: Dict[str, int] = {name: 0 for name in bounds}

    def bound_for(self, channel: str) -> int:
        """The effective quota of ``channel`` (the shared one if shared)."""
        return self._cells[channel][1]

    def try_consume(self, channel: str, amount: int = 1) -> bool:
        """Consume quota for ``amount`` messages on ``channel``.

        Returns False (and records the rejection) when the quota is
        exhausted; the caller then discards the message, which is how an
        attack flooding a channel starves it.
        """
        cell = self._cells.get(channel)
        if cell is None:
            raise KeyError(f"unknown channel {channel!r}")
        if amount <= 0:
            raise ValueError(f"amount must be > 0, got {amount}")
        used = cell[0] + amount
        if used > cell[1]:
            self.rejected[channel] += amount
            return False
        cell[0] = used
        return True

    def remaining(self, channel: str) -> int:
        """Quota left on ``channel`` this round."""
        used, bound = self._cells[channel]
        return bound - used

    def reset(self) -> None:
        """Start a new round: all quotas refill (rejection stats persist)."""
        for cell in self._cells.values():
            cell[0] = 0
