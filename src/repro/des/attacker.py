"""DoS attacker processes for the measurement platform.

An attacker floods each victim's well-known ports with fabricated
payloads at the specified per-round rate.  The junk is spread over
several bursts per round at a phase unrelated to any victim's round
timer (rounds are locally jittered, so the attacker could not aim at
round starts even if it tried — the paper's argument for why bogus and
authentic messages are discarded with equal probability).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.adversary.attacks import AttackSpec, PortLoad
from repro.core.config import ProtocolKind
from repro.des.environment import Environment
from repro.net.address import (
    PORT_PULL_REPLY,
    PORT_PULL_REQUEST,
    PORT_PUSH_OFFER,
    Address,
)
from repro.util import derive_rng
from repro.util.rng import SeedLike


@dataclass(frozen=True, slots=True)
class FabricatedPayload:
    """Junk that consumes a quota slot and then fails every sanity check."""


#: Every flood packet carries this one instance: nothing reads a field.
_JUNK = FabricatedPayload()


class AttackerProcess:
    """Floods a set of victims once started."""

    def __init__(
        self,
        env: Environment,
        spec: AttackSpec,
        kind: ProtocolKind,
        victims: Sequence[int],
        *,
        attacker_id: int = -666,
        round_duration_ms: float = 1000.0,
        bursts_per_round: int = 4,
        seed: SeedLike = None,
    ):
        if bursts_per_round < 1:
            raise ValueError(
                f"bursts_per_round must be >= 1, got {bursts_per_round}"
            )
        self.env = env
        self.spec = spec
        self.kind = kind
        self.victims = list(victims)
        self.attacker_id = attacker_id
        self.round_duration_ms = float(round_duration_ms)
        self.bursts_per_round = bursts_per_round
        self.rng = derive_rng(seed)
        self.running = False
        self.injected_total = 0
        self._handle: Optional[object] = None

    def _port_rates(self) -> List:
        """(port, per-round rate) pairs for each victim.

        In the measured implementation every push-capable protocol
        receives push traffic on the well-known *offer* port.
        """
        load: PortLoad = self.spec.port_load(self.kind)
        pairs = []
        if load.push > 0:
            pairs.append((PORT_PUSH_OFFER, load.push))
        if load.pull_request > 0:
            pairs.append((PORT_PULL_REQUEST, load.pull_request))
        if load.pull_reply > 0:
            pairs.append((PORT_PULL_REPLY, load.pull_reply))
        return pairs

    def start(self) -> None:
        """Begin flooding at a random phase."""
        if self.running:
            raise RuntimeError("attacker already running")
        self.running = True
        offset = float(
            self.rng.uniform(0, self.round_duration_ms / self.bursts_per_round)
        )
        self._handle = self.env.schedule(offset, self._burst)

    def stop(self) -> None:
        self.running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _burst(self) -> None:
        if not self.running:
            return
        # The spoofed source claims a node id *outside* the group: the flood
        # must stay distinguishable from member traffic for fault
        # injection, where a partition cuts member links but never
        # shields victims from an external DoS stream.
        src = (
            Address(10**6, 0)
            if self.attacker_id < 0
            else Address(self.attacker_id, 0)
        )
        interval = self.round_duration_ms / self.bursts_per_round
        rates = self._port_rates()
        post, send = self.env.post, self.env.send
        for victim in self.victims:
            for port, rate in rates:
                per_burst = rate / self.bursts_per_round
                count = int(per_burst)
                frac = per_burst - count
                if frac > 0 and self.rng.random() < frac:
                    count += 1
                if not count:
                    continue
                dst = Address(victim, port)
                # Spread the packets at independent uniform offsets:
                # victims' rounds are jittered, so from a victim's
                # perspective the flood is a uniform stream — which is
                # what makes a fabricated message exactly as likely to
                # win an acceptance slot as a valid one (Section 4).
                # One vectorised draw yields the same stream values as
                # ``count`` scalar ``uniform`` calls.
                offsets = self.rng.uniform(0.0, interval, size=count)
                for offset in offsets.tolist():
                    post(offset, send, src, dst, _JUNK)
                self.injected_total += count
        self._handle = self.env.schedule(interval, self._burst)
