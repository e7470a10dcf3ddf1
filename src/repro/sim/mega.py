"""Mega-scale packed-bitset Monte-Carlo engine (n up to 10⁶ and beyond).

The vectorised engine (:mod:`repro.sim.fast`) stacks all runs of an
experiment into dense ``(runs, n)`` and ``(runs, senders, v)`` matrices.
That is the right trade at paper scale (n = 120/1000 × 1000 runs), but
it cannot reach the asymptotic regime of the paper's Section 6 analysis
— Drum propagating in O(log n) rounds under targeted attack while pull
degrades toward Θ(n) — because the per-round view matrices alone grow
to multiple GB near n = 10⁵.

This engine inverts the layout: **one run at a time**, with the *node*
axis as the vectorised dimension, and the hot state packed tight:

- the infection state is a **packed bitmap** (1 bit per process,
  ``uint8`` little-endian bit order — 125 KB at n = 10⁶);
- per-node bounded-channel occupancy (valid/fabricated arrival counts
  per well-known port) lives in small-int counter arrays;
- fault and membership state (senders, receivers, crash / stall /
  partition-side masks) is a per-round input from
  :class:`repro.sim.views.Membership`, resolved once per schedule
  state on static plans.

Rounds walk the node axis one fixed-size *block* of
:data:`MEGA_BLOCK_NODES` node ids at a time.  Randomness is drawn per
block from a generator seeded positionally — ``SeedSequence(entropy,
run_spawn_key + (round, block))``, the same positional derivation
:mod:`repro.sim.parallel` uses for run shards — so the sampled values
depend only on ``(seed, run, round, block)`` and fanning runs out over
any number of pool workers produces **byte-identical** results.

Cost model: a round is O(n·v) draws plus O(hits) scatters.  Each block
draws its ``(block, v)`` views (:mod:`repro.sim.views`, the kernel the
fast engine calls too) and loss masks and scatter-adds its hits
into the persistent n-wide arrival counters (``np.add.at``); the n-wide
passes (counter reset, acceptance probabilities, popcounts) run once
per round, never inside a block loop, so no block materialises an
n-wide temporary and the per-node-round cost does not grow with n
beyond what random gathers and scatters cost once they leave cache.

Blocks are processed one at a time.  Every result still records the
constant :data:`DEFAULT_SHARD_NODES` as its ``shard_nodes`` layout
label, because every stored mega envelope and ``mega_meta`` side-car
carries it.

Equivalence story: the packed engine draws from the same per-round
distributions as the fast engine (exact F-subset views, hypergeometric
bounded acceptance, the Appendix-C independence approximation for pull
requests, loss-thinned fabricated floods), but consumes a different
random stream, so seeded runs are *statistically* — not trace-level —
equivalent to fast/exact.  ``tests/equivalence.py`` pins that claim
with two-sample KS, chi-square, and binomial-CI checks at overlapping
group sizes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.adversary.attacks import PortLoad
from repro.sim.fast import _accept_any, _fabricated_counts
from repro.sim.results import MonteCarloResult, check_envelope
from repro.sim.scenario import Scenario
from repro.sim.views import Membership, col_ids, rows_below
from repro.util.rng import SeedLike

#: Atomic randomness granularity: one positionally seeded generator per
#: ``MEGA_BLOCK_NODES``-wide block of node ids per round.  A multiple of
#: 8 so block boundaries align with packed-bitmap bytes.  This constant
#: is part of the engine's determinism contract — changing it reshuffles
#: every seeded mega result (bump :data:`repro.sweep.store.CACHE_VERSION`
#: if you ever do).
MEGA_BLOCK_NODES = 4096

#: The ``shard_nodes`` label recorded in every result's layout facts.
#: It names no work and changes no byte.
DEFAULT_SHARD_NODES = 1 << 18

#: Popcount lookup table for packed-bitmap byte counts.
_POP8 = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).sum(axis=1).astype(np.uint8)


# ---------------------------------------------------------------------------
# packed-bitmap primitives
# ---------------------------------------------------------------------------

def packed_size(n: int) -> int:
    """Bytes needed for an ``n``-bit little-endian packed bitmap."""
    return (n + 7) // 8


def bit_get(packed: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Gather bits ``idx`` from a packed bitmap as a bool array."""
    return ((packed[idx >> 3] >> (idx & 7).astype(np.uint8)) & 1).astype(bool)


def bit_or_block(packed: np.ndarray, start: int, bits: np.ndarray) -> None:
    """OR a byte-aligned bool block (``start % 8 == 0``) into ``packed``."""
    if bits.size == 0:
        return
    pad = (-bits.size) % 8
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=bool)])
    chunk = np.packbits(bits, bitorder="little")
    packed[start >> 3: (start >> 3) + chunk.size] |= chunk


def popcount(packed: np.ndarray) -> int:
    """Number of set bits in a packed bitmap."""
    return int(_POP8[packed].sum(dtype=np.int64))


def popcount_prefix(packed: np.ndarray, k: int) -> int:
    """Number of set bits among the first ``k`` positions."""
    if k <= 0:
        return 0
    full, rem = divmod(k, 8)
    total = int(_POP8[packed[:full]].sum(dtype=np.int64))
    if rem:
        total += int(_POP8[packed[full] & ((1 << rem) - 1)])
    return total


def mask_to_packed(n: int, ids) -> np.ndarray:
    """A packed bitmap with exactly the bits in ``ids`` set."""
    packed = np.zeros(packed_size(n), dtype=np.uint8)
    idx = np.fromiter(ids, dtype=np.int64, count=len(ids))
    np.bitwise_or.at(
        packed, idx >> 3, (np.uint8(1) << (idx & 7).astype(np.uint8))
    )
    return packed


# ---------------------------------------------------------------------------
# the mega result envelope
# ---------------------------------------------------------------------------

class MegaResult(MonteCarloResult):
    """A :class:`MonteCarloResult` plus packed-engine execution facts.

    Everything the aggregate metrics need lives in the inherited count
    trajectories; the extras record *how* the packed engine ran —
    shard/block layout and the peak bytes of engine-owned state — which
    the asymptotic-scale benchmark gates its memory ceiling on.
    Serialises as envelope kind ``"mega"`` (see :mod:`repro.api.results`)
    and round-trips through the npz cache tier via a ``mega_meta``
    side-car array.
    """

    def __init__(
        self,
        *,
        scenario: Scenario,
        counts: np.ndarray,
        counts_attacked: np.ndarray,
        counts_non_attacked: np.ndarray,
        reachable_holders: Optional[np.ndarray] = None,
        churn_stats: Optional[np.ndarray] = None,
        shard_nodes: int = 0,
        blocks: int = 0,
        peak_state_bytes: int = 0,
    ):
        super().__init__(
            scenario=scenario,
            counts=counts,
            counts_attacked=counts_attacked,
            counts_non_attacked=counts_non_attacked,
            reachable_holders=reachable_holders,
            churn_stats=churn_stats,
        )
        self.shard_nodes = int(shard_nodes)
        self.blocks = int(blocks)
        self.peak_state_bytes = int(peak_state_bytes)

    def mega_meta(self) -> np.ndarray:
        """The npz side-car: ``[shard_nodes, blocks, peak_state_bytes]``."""
        return np.array(
            [self.shard_nodes, self.blocks, self.peak_state_bytes],
            dtype=np.int64,
        )

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["kind"] = "mega"
        out["data"]["mega"] = {
            "shard_nodes": self.shard_nodes,
            "blocks": self.blocks,
            "peak_state_bytes": self.peak_state_bytes,
        }
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MegaResult":
        check_envelope(data, "mega")
        body = data["data"]
        holders = body.get("reachable_holders")
        churn_stats = body.get("churn_stats")
        meta = body.get("mega") or {}
        return cls(
            scenario=Scenario.from_dict(data["config"]),
            counts=np.asarray(body["counts"], dtype=np.int32),
            counts_attacked=np.asarray(
                body["counts_attacked"], dtype=np.int32
            ),
            counts_non_attacked=np.asarray(
                body["counts_non_attacked"], dtype=np.int32
            ),
            reachable_holders=None
            if holders is None
            else np.asarray(holders, dtype=np.int32),
            churn_stats=None
            if churn_stats is None
            else np.asarray(churn_stats, dtype=np.float64),
            shard_nodes=meta.get("shard_nodes", 0),
            blocks=meta.get("blocks", 0),
            peak_state_bytes=meta.get("peak_state_bytes", 0),
        )


# ---------------------------------------------------------------------------
# per-run machinery
# ---------------------------------------------------------------------------

def _run_root(seed: SeedLike) -> np.random.SeedSequence:
    """The run's root :class:`SeedSequence` for positional block seeds."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        # Generator seeds are stateful by design: burn one draw for a
        # positional root, exactly like ``spawn_seeds``.
        return np.random.SeedSequence(int(seed.integers(0, 2**63)))
    return np.random.SeedSequence(seed)


class _BlockRngs:
    """One lazily created generator per node block for one round.

    Block ``b``'s generator is seeded ``SeedSequence(entropy,
    run_spawn_key + (round, b))`` and is reused across all of the
    round's phases in a fixed per-block order.  Index ``n_blocks`` (one
    past the last node block) is the run-level stream (Gilbert–Elliott
    chain steps).
    """

    __slots__ = ("root", "round_no", "_gens")

    def __init__(self, root: np.random.SeedSequence, round_no: int):
        self.root = root
        self.round_no = round_no
        self._gens: dict = {}

    def __call__(self, block: int) -> np.random.Generator:
        gen = self._gens.get(block)
        if gen is None:
            seed = np.random.SeedSequence(
                entropy=self.root.entropy,
                spawn_key=tuple(self.root.spawn_key)
                + (self.round_no, block),
                pool_size=self.root.pool_size,
            )
            gen = np.random.default_rng(seed)
            self._gens[block] = gen
        return gen


def _col_bytes(cols) -> int:
    """Bytes a stashed block's sender columns hold: none for a slice."""
    return 0 if isinstance(cols, slice) else cols.nbytes


def _bit_or_cols(packed: np.ndarray, cols, bits: np.ndarray) -> None:
    """OR ``bits`` into ``packed`` at a block's sender columns."""
    if isinstance(cols, slice):
        bit_or_block(packed, cols.start, bits)
        return
    ids = cols[bits]
    if len(ids):
        np.bitwise_or.at(
            packed, ids >> 3, (np.uint8(1) << (ids & 7).astype(np.uint8))
        )


def _run_one(
    scenario: Scenario,
    *,
    seed: SeedLike,
    horizon: Optional[int],
    tracer=None,
) -> Tuple[np.ndarray, np.ndarray, Optional[int], int, Optional[np.ndarray]]:
    """One packed run.

    Each round's senders, view pool, receivers and fault masks come
    from :class:`repro.sim.views.Membership`.  Under a churn plan the
    state spans the extended id universe (joiners at ids ``n ..``);
    the sender set of each block is schedule-determined and skipping a
    block burns no draws, so any worker count stays byte-identical.

    Returns ``(counts, counts_attacked, reachable, peak_bytes, churn)``
    where ``churn`` is ``None`` for static plans and the run's
    ``[join_latency, view_convergence]`` under churn.
    """
    root = _run_root(seed)
    members = Membership(scenario, scenario.fault_schedule())
    width = members.width
    cfg = scenario.protocol_config()
    loss = scenario.loss
    num_alive = scenario.num_alive_correct
    num_attacked = scenario.num_attacked
    num_perturbed = scenario.num_perturbed
    perturb_lo = num_alive - num_perturbed
    perturb_prob = scenario.perturbation_prob

    v_push = cfg.view_push_size
    v_pull = cfg.view_pull_size
    v = v_push + v_pull
    shared_bound = cfg.shared_in_bound

    load = (
        scenario.attack.port_load(scenario.protocol)
        if scenario.attack is not None
        else PortLoad()
    )

    n_blocks = (width + MEGA_BLOCK_NODES - 1) // MEGA_BLOCK_NODES

    ge = None
    ge_bad = False
    link = scenario.faults.link if scenario.faults is not None else None
    if link is not None and link.affects_loss:
        ge = link
    nondoomed_packed = None
    if members.nondoomed is not None:
        nondoomed_packed = mask_to_packed(width, members.nondoomed)
    joiner_ids = members.joiner_ids
    deliv = np.full(len(joiner_ids), -1, dtype=np.int32)

    # -- persistent packed / counter state ----------------------------------
    has = np.zeros(packed_size(width), dtype=np.uint8)
    has[0] |= 1  # the source (id 0) holds M
    alive_awake = np.zeros(width, dtype=bool)  # refreshed per round
    push_valid = np.zeros(width, dtype=np.int64) if v_push else None
    push_m = np.zeros(width, dtype=np.int64) if v_push else None
    req_valid = np.zeros(width, dtype=np.int64) if v_pull else None
    fab_push = (
        np.zeros(num_attacked, dtype=np.int64)
        if v_push and num_attacked
        else None
    )
    fab_req = (
        np.zeros(num_attacked, dtype=np.int64)
        if v_pull and num_attacked
        else None
    )

    target = scenario.threshold_count()
    max_rounds = horizon if horizon is not None else scenario.max_rounds

    cur_total = 1
    cur_attacked = 1 if num_attacked else 0
    hist_total = [cur_total]
    hist_attacked = [cur_attacked]
    # A run ends at the threshold, never before every membership event
    # has fired and propagated (``min_rounds``), and never early under
    # a fixed ``horizon``.
    active = (
        horizon is not None or members.min_rounds > 0 or cur_total < target
    )
    end_round = 0
    peak_bytes = 0

    if tracer is not None:
        tracer.run_start(
            "mega", protocol=scenario.protocol.value, n=scenario.n, runs=1
        )
        tracer.delivered(node=scenario.source, via="source", count=1)

    for round_no in range(1, max_rounds + 1):
        if not active:
            break
        if tracer is not None:
            tracer.round_start(round_no, active_runs=1)
        rngs = _BlockRngs(root, round_no)

        # -- run-level stream: bursty-loss chain, one step per round --------
        if ge is not None:
            g_run = rngs(n_blocks)
            flip = ge.p_bad_to_good if ge_bad else ge.p_good_to_bad
            ge_bad ^= bool(g_run.random() < flip)
            loss_round = ge.loss_bad if ge_bad else ge.loss_good
        else:
            loss_round = loss

        rnd = members.at(round_no)
        stall_ok, in_a = rnd.stall_ok, rnd.in_a
        alive_awake[:] = rnd.receivers
        if rnd.crashed is not None:
            alive_awake[rnd.crashed] = False
        new_has = has.copy()
        round_bytes = (
            has.nbytes + new_has.nbytes + alive_awake.nbytes + rnd.state_bytes
        )

        # -- phase A: sender draws, arrival counters -------------------------
        if push_valid is not None:
            push_valid[:] = 0
            push_m[:] = 0
        if req_valid is not None:
            req_valid[:] = 0
        # Per sender block, stash what later phases replay: sender
        # columns, targets, the request-sent mask, and (shared-bounds
        # only) push targets.
        pull_stash: List[Tuple[int, object, np.ndarray, np.ndarray]] = []
        push_stash: List[Tuple[int, object, np.ndarray]] = []
        sender_attempts = 0
        for b_start in range(0, width, MEGA_BLOCK_NODES):
            b_stop = min(b_start + MEGA_BLOCK_NODES, width)
            block = b_start // MEGA_BLOCK_NODES
            cols = rnd.block(b_start, b_stop)
            senders = col_ids(cols)
            lo = max(b_start, perturb_lo)
            hi = min(b_stop, num_alive)
            perturb = num_perturbed and perturb_prob > 0 and lo < hi
            if not len(senders) and not perturb:
                continue  # positional seeding: skipping burns no draws
            g = rngs(block)
            # (a) perturbation sleep draws for ids in this block
            if perturb:
                alive_awake[lo:hi] &= ~(g.random(hi - lo) < perturb_prob)
            if not len(senders):
                continue
            send_ok = alive_awake[cols]
            if stall_ok is not None:
                send_ok = send_ok & stall_ok[cols]
            # (b) view draws, (c) push loss, (d) pull loss
            views = rnd.draw(g, senders, v)
            t_push = views[:, :v_push]
            t_pull = views[:, v_push:]
            has_b = bit_get(has, senders)
            if v_push:
                sent = (
                    (g.random(t_push.shape) >= loss_round)
                    & send_ok[:, None]
                )
                if in_a is not None:
                    sent &= in_a[cols][:, None] == in_a[t_push]
                np.add.at(push_valid, t_push[sent], 1)
                holder = sent & has_b[:, None]
                np.add.at(push_m, t_push[holder], 1)
                if shared_bound is not None:
                    push_stash.append((block, cols, t_push))
            if v_pull:
                req_sent = (
                    (g.random(t_pull.shape) >= loss_round)
                    & send_ok[:, None]
                )
                if in_a is not None:
                    req_sent &= in_a[cols][:, None] == in_a[t_pull]
                np.add.at(req_valid, t_pull[req_sent], 1)
                pull_stash.append((block, cols, t_pull, req_sent))
            sender_attempts += int(send_ok.sum()) * v
        round_bytes += sum(
            _col_bytes(c) + t.nbytes + m.nbytes for _, c, t, m in pull_stash
        ) + sum(_col_bytes(c) + t.nbytes for _, c, t in push_stash)
        if push_valid is not None:
            round_bytes += push_valid.nbytes + push_m.nbytes
        if req_valid is not None:
            round_bytes += req_valid.nbytes

        # -- phase B: fabricated floods at attacked nodes --------------------
        for fab, rate in ((fab_push, load.push), (fab_req, load.pull_request)):
            if fab is None:
                continue
            fab[:] = 0
            if rate <= 0:
                continue
            for b_start in range(0, num_attacked, MEGA_BLOCK_NODES):
                b_stop = min(b_start + MEGA_BLOCK_NODES, num_attacked)
                g = rngs(b_start // MEGA_BLOCK_NODES)
                fab[b_start:b_stop] = _fabricated_counts(
                    g, rate, (b_stop - b_start,), loss_round
                )

        # -- shared-bounds pool ---------------------------------------------
        p_pool = None
        if shared_bound is not None:
            pool = (push_valid + req_valid).astype(float)
            if fab_push is not None:
                pool[:num_attacked] += fab_push
            if fab_req is not None:
                pool[:num_attacked] += fab_req
            pool[rnd.cols] += v_push
            with np.errstate(divide="ignore", invalid="ignore"):
                p_pool = np.where(
                    pool > 0, np.minimum(1.0, shared_bound / pool), 1.0
                )
            p_pool *= alive_awake
            round_bytes += p_pool.nbytes

        # -- phase C: push acceptance ---------------------------------------
        fab_total = 0
        if fab_push is not None:
            fab_total += int(fab_push.sum())
        if fab_req is not None:
            fab_total += int(fab_req.sum())
        if v_push and shared_bound is None:
            total = push_valid.copy()
            if fab_push is not None:
                total[:num_attacked] += fab_push
            for b_start in range(0, width, MEGA_BLOCK_NODES):
                b_stop = min(b_start + MEGA_BLOCK_NODES, width)
                g = rngs(b_start // MEGA_BLOCK_NODES)
                got = _accept_any(
                    g,
                    push_m[b_start:b_stop],
                    total[b_start:b_stop],
                    cfg.push_in_bound,
                )
                got &= alive_awake[b_start:b_stop]
                bit_or_block(new_has, b_start, got)
        elif v_push:
            # Offer handshake (shared-bounds variant): offer wins the
            # target's pool, push-reply wins the sender's pool, each leg
            # crosses one lossy link.
            arrivals = np.zeros(width, dtype=np.int64)
            for block, cols, t_push in push_stash:
                g = rngs(block)
                send_ok = alive_awake[cols]
                if stall_ok is not None:
                    send_ok = send_ok & stall_ok[cols]
                offer_ok = (
                    (g.random(t_push.shape) >= loss_round)
                    & send_ok[:, None]
                )
                if in_a is not None:
                    offer_ok &= in_a[cols][:, None] == in_a[t_push]
                offer_acc = offer_ok & (
                    g.random(t_push.shape) < p_pool[t_push]
                )
                if stall_ok is not None:
                    offer_acc &= stall_ok[t_push]
                reply_acc = (
                    offer_acc
                    & (g.random(t_push.shape) >= loss_round)
                    & (g.random(t_push.shape) < p_pool[cols][:, None])
                )
                data_ok = reply_acc & (g.random(t_push.shape) >= loss_round)
                m_data = data_ok & bit_get(has, col_ids(cols))[:, None]
                np.add.at(arrivals, t_push[m_data], 1)
            got_all = (arrivals >= 1) & alive_awake
            bit_or_block(new_has, 0, got_all)
            round_bytes += arrivals.nbytes

        # -- phase D: pull requests and replies -------------------------------
        if v_pull:
            if shared_bound is not None:
                accept_prob = p_pool
            else:
                denom = req_valid.astype(float)
                if fab_req is not None:
                    denom[:num_attacked] += fab_req
                with np.errstate(divide="ignore", invalid="ignore"):
                    accept_prob = np.where(
                        denom > 0,
                        np.minimum(1.0, cfg.pull_in_bound / denom),
                        1.0,
                    )
                accept_prob *= alive_awake
                round_bytes += accept_prob.nbytes
            wkr = not cfg.uses_random_ports
            for block, cols, t_pull, req_sent in pull_stash:
                g = rngs(block)
                accepted = req_sent & (
                    g.random(t_pull.shape) < accept_prob[t_pull]
                )
                if stall_ok is not None:
                    accepted &= stall_ok[t_pull]
                reply_ok = accepted & (g.random(t_pull.shape) >= loss_round)
                m_reply = reply_ok & bit_get(has, t_pull)
                if not wkr:
                    got_pull = m_reply.any(axis=1)
                else:
                    # Well-known reply port: bounded and attacked.
                    replies = reply_ok.sum(axis=1)
                    m_replies = m_reply.sum(axis=1)
                    k = rows_below(cols, num_attacked)
                    if load.pull_reply > 0 and k:
                        fab_reply = _fabricated_counts(
                            g, load.pull_reply, (k,), loss_round
                        )
                        fab_total += int(fab_reply.sum())
                        replies = replies.copy()
                        replies[:k] += fab_reply
                    got_pull = _accept_any(
                        g, m_replies, replies, cfg.pull_in_bound
                    )
                _bit_or_cols(new_has, cols, got_pull)

        # -- end of round -----------------------------------------------------
        has = new_has
        cur_total = popcount_prefix(has, num_alive)
        cur_attacked = popcount_prefix(has, num_attacked)
        hist_total.append(cur_total)
        hist_attacked.append(cur_attacked)
        peak_bytes = max(peak_bytes, round_bytes)
        end_round = round_no

        joined = 0
        if len(joiner_ids):
            fresh = bit_get(has, joiner_ids) & (deliv == -1)
            deliv[fresh] = round_no
            joined = int(fresh.sum())

        if tracer is not None:
            if sender_attempts:
                tracer.gossip_sent(-1, -1, count=sender_attempts)
            if fab_total:
                tracer.flood_sent(-1, -1, count=fab_total)
            delivered_now = hist_total[-1] - hist_total[-2]
            if delivered_now:
                tracer.delivered(count=delivered_now)
            if joined:
                tracer.delivered(via="joiner", count=joined)

        if horizon is None and round_no >= members.min_rounds:
            active = cur_total < target
            if active and nondoomed_packed is not None:
                settled = (
                    popcount(has & nondoomed_packed)
                    == len(members.nondoomed)
                )
                active = not settled

    if tracer is not None:
        tracer.run_end(
            rounds=len(hist_total) - 1, delivered=cur_total, runs=1
        )

    reachable_holders = None
    if members.reachable is not None:
        reachable_holders = popcount(
            has & mask_to_packed(width, members.reachable)
        )
    return (
        np.array(hist_total, dtype=np.int32),
        np.array(hist_attacked, dtype=np.int32),
        reachable_holders,
        peak_bytes,
        members.churn_stats(deliv, end_round),
    )


# ---------------------------------------------------------------------------
# the public driver
# ---------------------------------------------------------------------------

def _mega_task(task):
    scenario, seed, horizon, trace = task
    tracer = sink = None
    if trace:
        from repro.sim.parallel import _shard_tracer

        tracer, sink = _shard_tracer()
    counts, attacked, reachable, peak, churn = _run_one(
        scenario, seed=seed, horizon=horizon, tracer=tracer
    )
    return (
        counts,
        attacked,
        reachable,
        peak,
        churn,
        sink.events if sink is not None else None,
    )


class MegaJob:
    """``runs`` packed runs as an executor job (one task per run).

    Node blocks stream *inside* each task; the run fan-out rides the
    same persistent pool and positional assembly as the dense engines
    (:class:`repro.sim.parallel._DenseJob`).  ``runs == 1`` passes the
    caller's seed straight through, mirroring the fast engine's
    single-shard behaviour.
    """

    def __init__(
        self,
        scenario: Scenario,
        runs: int = 1,
        *,
        seed: SeedLike = None,
        horizon: Optional[int] = None,
    ):
        from repro.sim.parallel import child_seeds

        if runs < 1:
            raise ValueError(f"runs must be >= 1, got {runs}")
        self.scenario = scenario
        self.runs = int(runs)
        self.horizon = horizon
        schedule = scenario.fault_schedule()
        self.has_churn = schedule is not None and schedule.has_churn
        id_universe = schedule.total_n if self.has_churn else scenario.n
        self.blocks = (id_universe + MEGA_BLOCK_NODES - 1) // MEGA_BLOCK_NODES
        self._seeds: List[SeedLike]
        if self.runs == 1:
            self._seeds = [seed]
        else:
            self._seeds = list(child_seeds(seed, self.runs))

    def calls(self, trace: bool):
        return [
            (_mega_task, (self.scenario, run_seed, self.horizon, trace))
            for run_seed in self._seeds
        ]

    def assemble(self, rows, tracer) -> "MegaResult":
        from repro.sim.parallel import _stack_padded

        if tracer is not None:
            for run_ix, row in enumerate(rows):
                for event in row[5]:
                    event["run"] = run_ix
                    tracer.emit(event)
        width = max(row[0].shape[0] for row in rows)
        if self.horizon is not None:
            width = max(width, self.horizon + 1)
        counts = _stack_padded([row[0][None, :] for row in rows], width)
        attacked = _stack_padded([row[1][None, :] for row in rows], width)
        reachable_holders = None
        if all(row[2] is not None for row in rows):
            reachable_holders = np.array(
                [row[2] for row in rows], dtype=np.int32
            )
        churn_stats = None
        if self.has_churn:
            churn_stats = np.array(
                [row[4] for row in rows], dtype=np.float64
            )
        return MegaResult(
            scenario=self.scenario,
            counts=counts,
            counts_attacked=attacked,
            counts_non_attacked=counts - attacked,
            reachable_holders=reachable_holders,
            churn_stats=churn_stats,
            shard_nodes=DEFAULT_SHARD_NODES,
            blocks=self.blocks,
            peak_state_bytes=max(row[3] for row in rows),
        )


def run_mega(
    scenario: Scenario,
    runs: int = 1,
    *,
    seed: SeedLike = None,
    horizon: Optional[int] = None,
    workers: int = 1,
    tracer=None,
) -> MegaResult:
    """Simulate ``runs`` independent packed runs of ``scenario``.

    One child seed per run is derived positionally (``runs == 1`` passes
    the caller's seed straight through, mirroring the fast engine's
    single-shard behaviour) and runs fan out over ``workers`` persistent
    pool processes, assembled positionally — the result is
    byte-identical for every ``workers``.
    ``tracer`` attaches aggregate per-round events (run-ordered and
    worker-count invariant, like the fast engine's sharded stream).
    """
    from repro.sim.parallel import check_workers, execute_job

    workers = check_workers(workers)
    job = MegaJob(scenario, runs, seed=seed, horizon=horizon)
    return execute_job(job, workers=workers, tracer=tracer)
