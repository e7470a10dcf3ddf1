"""Random gossip-view selection.

Every round each process draws small uniform-random views from its
membership list — the randomness that removes single points of failure
from gossip protocols and that Drum additionally leans on to make push
targets unpredictable to an attacker.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence

from repro.util import derive_rng
from repro.util.rng import SeedLike


def select_view(
    members: Sequence[int],
    self_id: int,
    size: int,
    rng: SeedLike = None,
) -> List[int]:
    """Choose ``size`` distinct gossip partners uniformly at random.

    ``self_id`` is excluded.  When fewer than ``size`` other members
    exist, all of them are returned (in random order) — a process in a
    tiny group simply gossips with everyone.
    """
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    generator = derive_rng(rng)
    candidates = [m for m in members if m != self_id]
    if len(candidates) <= size:
        generator.shuffle(candidates)
        return candidates
    idx = generator.choice(len(candidates), size=size, replace=False)
    return [candidates[i] for i in idx]


def select_disjoint_views(
    members: Sequence[int],
    self_id: int,
    sizes: Sequence[int],
    rng: SeedLike = None,
) -> List[List[int]]:
    """Choose several pairwise-disjoint views in one draw.

    Drum draws ``view_push`` and ``view_pull`` each round; drawing them
    disjointly avoids wasting fan-out on gossiping twice with the same
    partner in one round.  Falls back to overlapping views when the
    group is too small to satisfy disjointness.
    """
    return disjoint_views(
        [m for m in members if m != self_id], sizes, derive_rng(rng)
    )


def disjoint_views(
    candidates: Sequence[int], sizes: Sequence[int], generator
) -> List[List[int]]:
    """:func:`select_disjoint_views` from ``candidates``, the members
    other than the drawing process, as a node keeps them between rounds."""
    total = sum(sizes)
    if len(candidates) < total:
        # Too few for disjoint views: independent ones (self is out already).
        return [select_view(candidates, None, s, generator) for s in sizes]
    idx = generator.choice(len(candidates), size=total, replace=False)
    chosen = [candidates[i] for i in idx.tolist()]
    ends = itertools.accumulate(sizes)
    return [chosen[end - s : end] for s, end in zip(sizes, ends)]
