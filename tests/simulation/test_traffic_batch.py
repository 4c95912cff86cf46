"""Block draws: one replica's traffic stream, 256 cycles at a time."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.service.deterministic import DeterministicService
from repro.service.multisize import MultiSizeService
from repro.simulation.traffic import BLOCK_CYCLES, NetworkTrafficGenerator


def make(**kwargs):
    defaults = dict(
        width=8,
        p=0.5,
        service=DeterministicService(1),
        rng=np.random.default_rng(kwargs.pop("seed", 11)),
    )
    defaults.update(kwargs)
    return NetworkTrafficGenerator(**defaults)


def reference_block(rng, width, p, q, bulk, service):
    """The block draw order spelled out: coins, destinations, the
    favourite gate, bulk expansion, services."""
    coins = rng.random((BLOCK_CYCLES, width))
    cycles, sources = np.nonzero(coins < p)
    dests = rng.integers(0, width, size=cycles.size)
    if q > 0:
        dests = np.where(rng.random(cycles.size) < q, sources, dests)
    cycles, sources, dests = (np.repeat(a, bulk) for a in (cycles, sources, dests))
    return cycles, sources, dests, service.sample(rng, cycles.size)


@pytest.mark.parametrize(
    "kw",
    [
        dict(p=0.3),
        dict(p=0.5, q=0.3),
        dict(p=0.2, bulk_size=2),
        dict(p=0.3, service=MultiSizeService((1, 3), (0.6, 0.4))),
    ],
    ids=["uniform", "favourite", "bulk", "sizes"],
)
def test_consecutive_blocks_follow_the_draw_order(kw):
    gen = make(seed=5, **kw)
    rng = np.random.default_rng(5)
    ref_kw = dict(
        q=kw.get("q", 0.0),
        bulk=kw.get("bulk_size", 1),
        service=kw.get("service", DeterministicService(1)),
    )
    for _ in range(3):
        block = gen.generate_batch()
        for got, expected in zip(block, reference_block(rng, 8, kw["p"], **ref_kw), strict=True):
            assert np.array_equal(got, expected)


def test_block_is_cycle_major_and_in_range():
    block = make(seed=9, p=0.4).generate_batch()
    assert np.all(np.diff(block.cycles) >= 0)
    assert np.all((block.cycles >= 0) & (block.cycles < BLOCK_CYCLES))
    assert np.all((block.sources >= 0) & (block.sources < 8))
    within = block.cycles * 8 + block.sources
    assert np.all(np.diff(within) > 0)


def test_generate_batch_bulk_keeps_packets_together():
    block = make(bulk_size=3, seed=1, p=0.9).generate_batch()
    assert block.sources.size % 3 == 0
    trip = block.destinations.reshape(-1, 3)
    assert np.array_equal(trip[:, 0], trip[:, 1])
    assert np.array_equal(trip[:, 0], trip[:, 2])


def test_services_are_int64_without_copy():
    assert make(seed=2, p=1.0).generate_batch().services.dtype == np.int64


def test_generate_batch_r1_matches_generate():
    """``generate`` is the block draw under its older name."""
    a, b = make(seed=4), make(seed=4)
    for got, expected in zip(a.generate(), b.generate_batch(), strict=True):
        assert np.array_equal(got, expected)


def test_load_statistics_per_replica():
    """One replica's stream injects at rate ``p`` and counts what it drew."""
    width, p = 16, 0.4
    gen = make(width=width, p=p, seed=21)
    count = sum(gen.generate_batch().sources.size for _ in range(8))
    assert gen.injected == count
    assert abs(count / (8 * BLOCK_CYCLES * width) - p) < 0.02


def test_offered_load():
    assert make(p=0.3, bulk_size=2).offered_load == pytest.approx(0.6)


def test_rejects_bad_parameters():
    with pytest.raises(ModelError, match="outside"):
        make(p=1.5)
    with pytest.raises(ModelError, match="outside"):
        make(q=-0.1)
    with pytest.raises(ModelError, match="bulk"):
        make(bulk_size=0)
    with pytest.raises(ModelError, match="permutation"):
        make(favorite=np.zeros(8, dtype=int))
