"""Gilbert–Elliott bursty-loss model.

A two-state Markov chain alternating between a *good* state (loss
``loss_good``) and a *bad* state (loss ``loss_bad``).  The chain steps
once per transmission, so losses come in bursts whose mean length is
``1 / p_bad_to_good`` — the classic model for congested or fading links,
in contrast to the paper's i.i.d. :class:`~repro.net.link.LossModel`.

``GilbertElliottModel`` is a drop-in for ``LossModel``: same
``delivered()`` / ``surviving_count()`` / ``survival_mask()`` /
``reseed()`` surface and a ``loss_probability`` attribute (the
stationary mean, so code that *reports* the loss rate keeps working).
The exact round engine swaps it in via ``Network.use_loss_model`` and
the one link of the DES and aio (:mod:`repro.faults.live`) as its loss
model; the vectorised engine keeps its own per-run chain (see
``sim/fast.py``).

Chain stepping mutates state, so one model belongs to one thread: the
clock's, on which the link draws.  The golden no-fault hot path never
touches this class.
"""

from __future__ import annotations

import numpy as np

from repro.util import check_probability
from repro.util.rng import SeedLike, derive_rng


class GilbertElliottModel:
    """Two-state Markov (Gilbert–Elliott) packet loss.

    State transitions happen per transmission *before* the loss draw, so
    a freshly constructed model in the good state can already lose its
    first packet after an (unlikely) immediate good→bad flip.
    """

    __slots__ = (
        "loss_good",
        "loss_bad",
        "p_good_to_bad",
        "p_bad_to_good",
        "loss_probability",
        "_bad",
        "_rng",
    )

    def __init__(
        self,
        loss_good: float,
        loss_bad: float,
        p_good_to_bad: float,
        p_bad_to_good: float,
        *,
        seed: SeedLike = None,
    ):
        check_probability("loss_good", loss_good)
        check_probability("loss_bad", loss_bad)
        check_probability("p_good_to_bad", p_good_to_bad)
        check_probability("p_bad_to_good", p_bad_to_good)
        if p_good_to_bad > 0 and p_bad_to_good == 0:
            raise ValueError(
                "p_bad_to_good must be > 0 when p_good_to_bad is > 0"
            )
        self.loss_good = float(loss_good)
        self.loss_bad = float(loss_bad)
        self.p_good_to_bad = float(p_good_to_bad)
        self.p_bad_to_good = float(p_bad_to_good)
        # Stationary mean loss, kept under the attribute name LossModel
        # consumers read for reporting.
        if p_good_to_bad == 0:
            pi_bad = 0.0
        else:
            pi_bad = p_good_to_bad / (p_good_to_bad + p_bad_to_good)
        self.loss_probability = (
            (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad
        )
        self._bad = False
        self._rng = derive_rng(seed)

    @classmethod
    def from_link_faults(cls, link, *, seed: SeedLike = None):
        """Build from a :class:`repro.faults.plan.LinkFaults`."""
        return cls(
            link.loss_good,
            link.loss_bad,
            link.p_good_to_bad,
            link.p_bad_to_good,
            seed=seed,
        )

    def reseed(self, seed: SeedLike) -> None:
        """Replace the generator and reset the chain to the good state."""
        self._rng = derive_rng(seed)
        self._bad = False

    def delivered(self) -> bool:
        """Sample one transmission: True when the packet survives.

        The chain steps first (inline: the link draws this per datagram).
        """
        rng, bad = self._rng, self._bad
        flip = self.p_bad_to_good if bad else self.p_good_to_bad
        if flip > 0 and rng.random() < flip:
            self._bad = bad = not bad
        loss = self.loss_bad if bad else self.loss_good
        return loss == 0.0 or rng.random() >= loss

    def surviving_count(self, sent: int) -> int:
        """Sample how many of ``sent`` consecutive packets survive.

        The chain steps once per packet, so a burst can swallow a whole
        flood batch — unlike the binomial thinning of i.i.d. loss.
        """
        if sent < 0:
            raise ValueError(f"sent must be >= 0, got {sent}")
        return sum(self.delivered() for _ in range(sent))

    def survival_mask(self, count: int) -> np.ndarray:
        """Boolean mask over ``count`` consecutive transmissions."""
        return np.fromiter(
            (self.delivered() for _ in range(count)), dtype=bool, count=count
        )
