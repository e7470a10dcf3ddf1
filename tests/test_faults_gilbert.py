"""Tests for repro.faults.gilbert: the bursty two-state loss model."""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.aio.transport import AioLoopbackTransport
from repro.faults import FaultPlan, GilbertElliottModel, LinkFaults
from repro.faults.live import FaultyTransport
from repro.net import Address


def test_degenerate_chain_is_uniform_loss():
    model = GilbertElliottModel(
        loss_good=0.25, loss_bad=0.25,
        p_good_to_bad=0.0, p_bad_to_good=1.0, seed=1,
    )
    drops = sum(not model.delivered() for _ in range(4000))
    assert drops / 4000 == pytest.approx(0.25, abs=0.03)
    assert model.loss_probability == pytest.approx(0.25)


def test_stationary_loss_matches_empirical_rate():
    link = LinkFaults(
        loss_good=0.01, loss_bad=0.6,
        p_good_to_bad=0.05, p_bad_to_good=0.2,
    )
    model = GilbertElliottModel.from_link_faults(link, seed=7)
    trials = 20000
    drops = sum(not model.delivered() for _ in range(trials))
    assert drops / trials == pytest.approx(link.stationary_loss, abs=0.02)
    assert model.loss_probability == pytest.approx(link.stationary_loss)


def test_losses_are_bursty():
    """Bad-state dwell makes consecutive drops far likelier than i.i.d."""
    model = GilbertElliottModel(
        loss_good=0.0, loss_bad=1.0,
        p_good_to_bad=0.02, p_bad_to_good=0.25, seed=3,
    )
    outcomes = [model.delivered() for _ in range(20000)]
    drops = [not ok for ok in outcomes]
    p_drop = sum(drops) / len(drops)
    # P(drop | previous drop): for this chain it is 1 - p_bad_to_good,
    # vastly above the marginal rate.
    follow = [b for a, b in zip(drops, drops[1:]) if a]
    p_drop_given_drop = sum(follow) / len(follow)
    assert p_drop < 0.15
    assert p_drop_given_drop == pytest.approx(0.75, abs=0.05)


def test_reseed_restores_the_stream():
    model = GilbertElliottModel(
        loss_good=0.05, loss_bad=0.5,
        p_good_to_bad=0.1, p_bad_to_good=0.3, seed=11,
    )
    first = [model.delivered() for _ in range(500)]
    model.reseed(11)
    second = [model.delivered() for _ in range(500)]
    assert first == second


def test_surviving_count_and_mask_agree_statistically():
    model = GilbertElliottModel(
        loss_good=0.1, loss_bad=0.9,
        p_good_to_bad=0.05, p_bad_to_good=0.25, seed=5,
    )
    total = sum(model.surviving_count(10) for _ in range(2000))
    model.reseed(5)
    total_mask = sum(int(model.survival_mask(10).sum()) for _ in range(2000))
    # Same seed, same per-packet chain: the two APIs agree exactly.
    assert total == total_mask
    survived = total / 20000
    assert survived == pytest.approx(1 - model.loss_probability, abs=0.02)


def test_survival_mask_shape_and_dtype():
    model = GilbertElliottModel(
        loss_good=0.5, loss_bad=0.5,
        p_good_to_bad=0.1, p_bad_to_good=0.1, seed=2,
    )
    mask = model.survival_mask(32)
    assert mask.shape == (32,)
    assert mask.dtype == np.bool_


class _ThreadSpy:
    """Delegates ``delivered()`` and records which thread asked."""

    def __init__(self, model):
        self.model = model
        self.threads = set()

    def delivered(self):
        self.threads.add(threading.get_ident())
        return self.model.delivered()


def test_thread_safety_under_concurrent_draws():
    """The model has no lock: four interleaved producers on the loop
    (there is no off-loop send) step its chain only on the loop thread,
    at the model's drop rate."""
    src, dst, per_producer = Address(0, 1), Address(1, 1), 2000
    total = 4 * per_producer

    async def go():
        inner = AioLoopbackTransport()
        inner.attach()
        shaper = FaultyTransport(
            inner, FaultPlan.parse("gilbert:0.2,0.8,0.1,0.2"), n=2,
            num_alive_correct=2, round_duration_ms=1000.0, seed=9,
        )
        spy = shaper.loss = _ThreadSpy(shaper.loss)
        shaper.bind(dst, lambda s, p: None)

        async def produce():
            for i in range(per_producer):
                shaper.send(src, dst, "x")
                if i % 100 == 0:
                    await asyncio.sleep(0)  # let the others in

        await asyncio.gather(*(produce() for _ in range(4)))
        deadline = time.monotonic() + 20.0
        while (
            inner.delivered + shaper.dropped < total
            and time.monotonic() < deadline
        ):
            await asyncio.sleep(0.01)
        shaper.close()
        return spy, inner.delivered, shaper.dropped

    spy, delivered, dropped = asyncio.run(go())
    assert spy.threads == {threading.get_ident()}
    assert delivered + dropped == total
    rate = delivered / total
    assert rate == pytest.approx(1 - spy.model.loss_probability, abs=0.05)
