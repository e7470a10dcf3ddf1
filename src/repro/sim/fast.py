"""Vectorised Monte-Carlo engine.

Implements the same round semantics as :mod:`repro.sim.engine` but
stacks all runs of an experiment into numpy array operations, making the
paper's 1000-runs-per-point sweeps tractable in Python.

Equivalence notes (validated by tests against the exact engine and the
Appendix C numerical analysis):

- View draws are exact F-subsets without replacement (duplicate rows are
  resampled), targets uniform over the other ``n - 1`` members; the
  draw and each round's membership are :mod:`repro.sim.views`, shared
  with :mod:`repro.sim.mega`.
- Channel acceptance is exact at the margin: the number of M-carrying
  messages accepted on a flooded channel is hypergeometric over the mix
  of valid and fabricated arrivals, which is precisely the distribution
  induced by "read a uniformly random bound-sized subset".
- Pull-request acceptance events at *different* targets are sampled
  independently with the exact marginal probability ``min(1, bound /
  arrivals)``; the negative correlation between two requesters accepted
  at the *same* flooded target is neglected.  The paper's own Appendix C
  analysis makes the same independence approximation (its ``q*``
  products), and Figures 13–14 show it is indistinguishable from the
  object-level simulation.
- Fabricated traffic is thinned by link loss, as in Appendix C, and
  fractional per-port rates are realised by randomised rounding so fixed
  budget sweeps inject exactly ``B`` messages per round in expectation.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.adversary.attacks import PortLoad
from repro.sim.results import MonteCarloResult
from repro.sim.scenario import Scenario
from repro.sim.views import Membership, col_ids, rows_below
from repro.util import derive_rng
from repro.util.rng import SeedLike

#: The most runs × ids one call holds: 64 runs over 10⁵ ids, whose
#: (runs, n) state and (runs, senders, F) view draws already peak near
#: 1.25 GB RSS.  ``monte_carlo`` splits larger jobs into blocks under it
#: (:func:`repro.sim.parallel.fast_shard_sizes`); a single run of any
#: size is one block.
FAST_BLOCK = 64 * 100_000


def _fabricated_counts(
    rng: np.random.Generator,
    rate: float,
    shape: tuple,
    loss,
) -> np.ndarray:
    """Loss-thinned fabricated arrivals at ``rate`` per victim per round.

    ``loss`` is a scalar, or a per-run column (broadcastable against
    ``shape``) when a fault plan drives per-round bursty loss.
    """
    if rate <= 0:
        return np.zeros(shape, dtype=np.int64)
    base = int(rate)
    frac = rate - base
    counts = np.full(shape, base, dtype=np.int64)
    if frac > 0:
        counts += rng.random(shape) < frac
    if np.any(loss > 0):
        counts = rng.binomial(counts, 1.0 - loss)
    return counts


def _accept_any(
    rng: np.random.Generator,
    m_arrivals: np.ndarray,
    total_arrivals: np.ndarray,
    bound: int,
) -> np.ndarray:
    """Whether ≥1 M-carrying message survives bounded random acceptance.

    Exact: the accepted subset is uniform over all arrivals, so the
    number of accepted M-messages is hypergeometric.
    """
    under = total_arrivals <= bound
    got = under & (m_arrivals >= 1)
    over = ~under & (m_arrivals > 0)
    if over.any():
        accepted = rng.hypergeometric(
            m_arrivals[over], total_arrivals[over] - m_arrivals[over], bound
        )
        got[over] = accepted >= 1
    return got


def _any_target(mask: np.ndarray) -> np.ndarray:
    """Whether any entry of each sender's view is set in ``mask``.

    One OR per view column: ``mask.any(axis=2)`` walks the 1–3-long
    axis once per sender and costs twenty times as much.
    """
    got = mask[:, :, 0].copy()
    for j in range(1, mask.shape[2]):
        got |= mask[:, :, j]
    return got


def run_fast(
    scenario: Scenario,
    runs: int,
    *,
    seed: SeedLike = None,
    horizon: Optional[int] = None,
    tracer=None,
) -> MonteCarloResult:
    """Simulate ``runs`` independent runs of ``scenario``.

    ``horizon`` forces simulating exactly that many rounds regardless of
    the coverage threshold — used by the CDF experiments, which plot
    coverage growth past 99 %.

    Each round's senders, view pool, receivers and fault masks come
    from :class:`repro.sim.views.Membership`; under a churn plan the
    state spans the extended id universe (joiners at ids ``n ..``) and
    the result carries per-run ``churn_stats``.

    ``tracer`` attaches a :class:`repro.obs.Tracer`.  The vectorised
    engine has no per-message view, so it emits *aggregate* events:
    one ``gossip_sent`` / ``flood_sent`` / ``delivered`` per round
    carrying run-summed ``count`` totals (flood counts are post-loss —
    the thinned arrivals are all this engine materialises), with joiner
    deliveries apart as ``delivered(via="joiner")``.  The tracer draws
    no randomness, so traced results are bit-identical.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    schedule = scenario.fault_schedule()
    members = Membership(scenario, schedule)
    width = members.width
    if runs > 1 and runs * width > FAST_BLOCK:
        raise ValueError(
            f"{runs} runs over {width} ids exceed one fast block of "
            f"{FAST_BLOCK} run-ids; run them through monte_carlo or "
            "Experiment.run, which shard them"
        )
    rng = derive_rng(seed)
    n = scenario.n
    cfg = scenario.protocol_config()
    loss = scenario.loss

    num_alive = scenario.num_alive_correct
    num_attacked = scenario.num_attacked

    v_push = cfg.view_push_size
    v_pull = cfg.view_pull_size
    shared_bound = cfg.shared_in_bound

    if scenario.attack is not None:
        load = scenario.attack.port_load(scenario.protocol)
    else:
        load = PortLoad()

    num_perturbed = scenario.num_perturbed
    perturb_lo = num_alive - num_perturbed
    perturb_prob = scenario.perturbation_prob

    # Bursty loss runs one Gilbert–Elliott chain per *run*, stepped once
    # per round — a coarser burst granularity than the exact engine's
    # per-packet chain, but the same stationary loss; cross-engine
    # equivalence under faults is statistical only.  Nothing here
    # touches the RNG unless the scenario carries faults.
    ge = None
    ge_bad = None
    link = scenario.faults.link if scenario.faults is not None else None
    if link is not None and link.affects_loss:
        ge = link
        ge_bad = np.zeros(runs, dtype=bool)

    joiner_ids = members.joiner_ids
    deliv = np.full((runs, len(joiner_ids)), -1, dtype=np.int32)

    has = np.zeros((runs, width), dtype=bool)
    has[:, scenario.source] = True

    target = scenario.threshold_count()
    max_rounds = horizon if horizon is not None else scenario.max_rounds

    cur_total = np.ones(runs, dtype=np.int32)
    cur_attacked = np.ones(runs, dtype=np.int32)  # the source is attacked
    if num_attacked == 0:
        cur_attacked = np.zeros(runs, dtype=np.int32)
    hist_total: List[np.ndarray] = [cur_total.copy()]
    hist_attacked: List[np.ndarray] = [cur_attacked.copy()]

    active = np.ones(runs, dtype=bool)
    if horizon is None and members.min_rounds == 0:
        active &= cur_total < target
    end_round = np.zeros(runs, dtype=np.int32)

    if tracer is not None:
        tracer.run_start(
            "fast", protocol=scenario.protocol.value, n=n, runs=runs
        )
        tracer.delivered(
            node=scenario.source, via="source", count=int(cur_total.sum())
        )

    for round_no in range(1, max_rounds + 1):
        if not active.any():
            break
        act = np.flatnonzero(active)
        r_count = len(act)
        if tracer is not None:
            tracer.round_start(round_no, active_runs=r_count)
        has_start = has[act]
        new_has = has_start.copy()

        # Per-run bursty loss: step every run's Gilbert–Elliott chain
        # once per round (active or not, so the stream never depends on
        # which runs already stopped), then broadcast the per-run loss
        # against the per-view draw shapes below.
        if ge is not None:
            flip = np.where(ge_bad, ge.p_bad_to_good, ge.p_good_to_bad)
            ge_bad ^= rng.random(runs) < flip
            loss_run = np.where(ge_bad, ge.loss_bad, ge.loss_good)[act]
            loss2 = loss_run[:, None]
            loss3 = loss_run[:, None, None]
        else:
            loss2 = loss3 = loss

        # Scheduled fault events, resolved exactly like the exact
        # engine: crashed processes take part in nothing (their ``has``
        # state persists), stalled processes send nothing — no gossip,
        # no replies — but keep accepting, and a partition cuts member
        # links crossing the split (attacker floods originate outside
        # the group and are never cut).
        rnd = members.at(round_no)
        cols, in_a, stall_ok = rnd.cols, rnd.in_a, rnd.stall_ok
        senders = col_ids(cols)
        views = rnd.draw(
            rng, np.tile(senders, r_count), v_push + v_pull
        ).reshape(r_count, len(senders), v_push + v_pull)
        t_push = views[:, :, :v_push]
        t_pull = views[:, :, v_push:]
        # One (run, target) cell index per view entry, shared by every
        # gather and arrival count below.
        cells = r_count * width
        first_cell = (np.arange(r_count) * width)[:, None, None]
        f_push = t_push + first_cell
        f_pull = t_pull + first_cell

        # Perturbed processes sleep through a round with probability
        # perturbation_prob: no sending, no accepting, no replying.
        awake = np.ones((r_count, width), dtype=bool)
        if num_perturbed and perturb_prob > 0:
            awake[:, perturb_lo:num_alive] = (
                rng.random((r_count, num_perturbed)) >= perturb_prob
            )
        if rnd.crashed is not None:
            awake[:, rnd.crashed] = False
        can_recv = rnd.receivers[None, :] & awake

        sender_awake = awake[:, cols, None]
        if stall_ok is not None:
            sender_awake = sender_awake & stall_ok[cols][None, :, None]
        has_senders = has_start[:, cols, None]
        side = None if in_a is None else in_a[cols][None, :, None]

        # ---- gather per-target channel loads -------------------------------
        push_valid = push_m = fab_push = None
        if v_push:
            sent = (rng.random(t_push.shape) >= loss3) & sender_awake
            if side is not None:
                sent &= side == in_a[t_push]
            push_valid = np.bincount(f_push[sent], minlength=cells).reshape(
                r_count, width
            )
            holder = sent & has_senders
            push_m = np.bincount(f_push[holder], minlength=cells).reshape(
                r_count, width
            )
            fab_push = np.zeros((r_count, width), dtype=np.int64)
            if load.push > 0 and num_attacked:
                fab_push[:, :num_attacked] = _fabricated_counts(
                    rng, load.push, (r_count, num_attacked), loss2
                )

        req_valid = fab_req = req_sent = None
        fab_reply = None
        if v_pull:
            req_sent = (rng.random(t_pull.shape) >= loss3) & sender_awake
            if side is not None:
                req_sent &= side == in_a[t_pull]
            req_valid = np.bincount(
                f_pull[req_sent], minlength=cells
            ).reshape(r_count, width)
            fab_req = np.zeros((r_count, width), dtype=np.int64)
            if load.pull_request > 0 and num_attacked:
                fab_req[:, :num_attacked] = _fabricated_counts(
                    rng, load.pull_request, (r_count, num_attacked), loss2
                )

        # ---- shared-bounds variant: joint control-message pool ---------------
        # The pool at each node holds push-offer arrivals, pull-request
        # arrivals, the fabricated flood on both well-known ports, and
        # the node's own incoming push-replies (one per offer it sent).
        # Every control message independently wins one of the
        # ``shared_bound`` slots with the pool's marginal probability.
        p_pool = None
        if shared_bound is not None:
            pool = (push_valid + fab_push + req_valid + fab_req).astype(float)
            pool[:, cols] += v_push
            with np.errstate(divide="ignore", invalid="ignore"):
                p_pool = np.where(
                    pool > 0, np.minimum(1.0, shared_bound / pool), 1.0
                )
            p_pool = p_pool * can_recv

        # ---- push reception --------------------------------------------------
        if v_push and shared_bound is None:
            total = push_valid + fab_push
            got_push = _accept_any(rng, push_m, total, cfg.push_in_bound)
            got_push &= can_recv
            new_has |= got_push
        elif v_push:
            # Offer handshake: the offer must win the target's pool, the
            # push-reply must win the sender's pool, and each of offer /
            # reply / data crosses one lossy link.
            offer_ok = (rng.random(t_push.shape) >= loss3) & sender_awake
            if side is not None:
                offer_ok &= side == in_a[t_push]
            offer_acc = offer_ok & (
                rng.random(t_push.shape) < p_pool.ravel()[f_push]
            )
            if stall_ok is not None:
                # A stalled target accepts the offer but its push-reply
                # never leaves the machine.
                offer_acc &= stall_ok[t_push]
            reply_acc = (
                offer_acc
                & (rng.random(t_push.shape) >= loss3)
                & (rng.random(t_push.shape) < p_pool[:, cols, None])
            )
            data_ok = reply_acc & (rng.random(t_push.shape) >= loss3)
            m_data = data_ok & has_senders
            arrivals = np.bincount(f_push[m_data], minlength=cells).reshape(
                r_count, width
            )
            new_has |= (arrivals >= 1) & can_recv

        # ---- pull: request acceptance and replies -----------------------------
        if v_pull:
            if shared_bound is not None:
                accept_prob = p_pool * awake
            else:
                denom = req_valid + fab_req
                with np.errstate(divide="ignore", invalid="ignore"):
                    accept_prob = np.where(
                        denom > 0,
                        np.minimum(1.0, cfg.pull_in_bound / denom),
                        1.0,
                    )
                accept_prob = accept_prob * can_recv

            accepted = req_sent & (
                rng.random(t_pull.shape) < accept_prob.ravel()[f_pull]
            )
            if stall_ok is not None:
                # A stalled target accepts the request but its reply
                # never leaves the machine.
                accepted &= stall_ok[t_pull]
            reply_ok = accepted & (rng.random(t_pull.shape) >= loss3)
            m_reply = reply_ok & has_start.ravel()[f_pull]

            if cfg.uses_random_ports:
                got_pull = _any_target(m_reply)
            else:
                # Well-known reply port: bounded and attacked (Fig 12a).
                replies = reply_ok.sum(axis=2)
                m_replies = m_reply.sum(axis=2)
                fab_reply = np.zeros((r_count, len(senders)), dtype=np.int64)
                k = rows_below(cols, num_attacked)
                if load.pull_reply > 0 and k:
                    fab_reply[:, :k] = _fabricated_counts(
                        rng, load.pull_reply, (r_count, k), loss2
                    )
                got_pull = _accept_any(
                    rng, m_replies, replies + fab_reply, cfg.pull_in_bound
                )
            new_has[:, cols] |= got_pull

        has[act] = new_has
        cur_total[act] = new_has[:, :num_alive].sum(axis=1, dtype=np.int32)
        cur_attacked[act] = new_has[:, :num_attacked].sum(
            axis=1, dtype=np.int32
        )
        hist_total.append(cur_total.copy())
        hist_attacked.append(cur_attacked.copy())
        end_round[act] = round_no

        joined = 0
        if len(joiner_ids):
            block = deliv[act]
            fresh = new_has[:, joiner_ids] & (block == -1)
            block[fresh] = round_no
            deliv[act] = block
            joined = int(fresh.sum())

        if tracer is not None:
            attempts = int(sender_awake.sum()) * (v_push + v_pull)
            if attempts:
                tracer.gossip_sent(-1, -1, count=attempts)
            fab_total = 0
            for fab in (fab_push, fab_req, fab_reply):
                if fab is not None:
                    fab_total += int(fab.sum())
            if fab_total:
                tracer.flood_sent(-1, -1, count=fab_total)
            delivered_now = int(
                cur_total[act].sum() - hist_total[-2][act].sum()
            )
            if delivered_now:
                tracer.delivered(count=delivered_now)
            if joined:
                tracer.delivered(via="joiner", count=joined)

        if horizon is None and round_no >= members.min_rounds:
            still = cur_total[act] < target
            if members.nondoomed is not None:
                # Processes gone for good can strand runs below the
                # threshold forever; a run is over once every process
                # that can still change state holds M.
                still &= ~new_has[:, members.nondoomed].all(axis=1)
            active[act] = still

    if tracer is not None:
        tracer.run_end(
            rounds=len(hist_total) - 1,
            delivered=int(cur_total.sum()),
            runs=runs,
        )
    counts = np.stack(hist_total, axis=1)
    counts_attacked = np.stack(hist_attacked, axis=1)
    reachable_holders = None
    if members.reachable is not None:
        reachable_holders = (
            has[:, members.reachable].sum(axis=1).astype(np.int32)
        )
    return MonteCarloResult(
        scenario=scenario,
        counts=counts,
        counts_attacked=counts_attacked,
        counts_non_attacked=counts - counts_attacked,
        reachable_holders=reachable_holders,
        churn_stats=members.churn_stats(deliv, end_round),
    )
