"""Pinned outputs of stacked and streamed runs.

The expected SHA-256 fingerprints cover every deterministic
:class:`NetworkResult` field (the tracked rows included), the streamed
runs' :class:`~repro.simulation.stats.StreamingTotals`, and the spec
digests of a vectorized and a sharded ``run_many`` batch (one digest
family: both equal the serial digests, and their results agree), so a
change to how stacked or streamed runs are driven cannot move a sample
path unnoticed.

A stack holds seeds of one scenario, so rows of different scenarios are
pinned one run per row: a replica's result does not depend on its
stack, so these are the fingerprints the rows had when they shared one.

Regenerate a fingerprint only for a change that is *meant* to alter
sample paths (a new seeding contract, say), and say so in CHANGES.md.
"""

from dataclasses import asdict, replace

import pytest

from repro.exec.runner import run_many
from repro.exec.spec import ExperimentSpec
from repro.simulation.batched import run_batched, run_stacked
from repro.simulation.network import NetworkConfig
from repro.simulation.streamed import run_streamed

from tests.simulation.test_serial_pins import fingerprint, result_fields


def pinned_fields(result) -> dict:
    """Every deterministic result field less the evaluator label, which
    these fingerprints never covered."""
    fields = result_fields(result)
    del fields["backend"]
    if result.totals_summary is not None:
        fields["totals_summary"] = asdict(result.totals_summary)
    return fields


def totals_fields(totals) -> dict:
    return {
        "counts": totals.counts,
        "mins": totals.mins,
        "maxs": totals.maxs,
        "sums_shifted": totals.sums_shifted,
        "sumsq_shifted": totals.sumsq_shifted,
        "sketch": None if totals.sketch is None else {
            "probs": totals.sketch.probs,
            "knots": totals.sketch.knots,
            "count": totals.sketch.count,
        },
        "tail": totals.tail,
        "tail_k": totals.tail_k,
    }


def per_row(rows, n_cycles, warmup):
    """One streamed run per row."""
    return [run_streamed([row], n_cycles, warmup=warmup) for row in rows]


def check_results(results, expected):
    assert fingerprint([pinned_fields(r) for r in results]) == expected


HETEROGENEOUS_BASE = NetworkConfig(k=2, n_stages=4, p=0.3, topology="omega")
HETEROGENEOUS_ROWS = [
    replace(HETEROGENEOUS_BASE, p=0.3, seed=21),
    replace(HETEROGENEOUS_BASE, p=0.25, bulk_size=2, seed=22),
    replace(HETEROGENEOUS_BASE, p=0.5, q=0.3, seed=23),
    replace(HETEROGENEOUS_BASE, p=0.15, message_size=4, seed=24),
]


class TestStackedPins:
    def test_run_batched_single_replica(self):
        config = NetworkConfig(k=2, n_stages=3, p=0.5, seed=42)
        results = run_batched(config, [42], 1_500, warmup=300)
        check_results(results, "a955fff978ce3c02")

    def test_run_batched_four_replicas(self):
        config = NetworkConfig(k=2, n_stages=3, p=0.6, topology="random", width=16)
        results = run_batched(config, [11, 12, 13, 14], 1_200, warmup=200)
        check_results(results, "f830d9e81925d9aa")

    def test_run_stacked_heterogeneous_rows(self):
        results = [
            result
            for row in HETEROGENEOUS_ROWS
            for result in run_stacked([row], 1_000, warmup=150)
        ]
        check_results(results, "d4fce0cd37a9b857")

    def test_run_stacked_store_and_forward(self):
        config = NetworkConfig(
            k=2, n_stages=3, p=0.2, message_size=3, transfer="store_forward"
        )
        configs = [replace(config, seed=s) for s in (5, 6, 7)]
        results = run_stacked(configs, 1_000, warmup=100)
        check_results(results, "9c73ccf0bc78cf25")


class TestStreamedPins:
    def test_run_streamed_tracked(self):
        configs = [
            NetworkConfig(k=2, n_stages=3, p=p, seed=60 + i)
            for i, p in enumerate([0.2, 0.5, 0.7, 0.4])
        ]
        batches = per_row(configs, 600, 80)
        assert all(batch.totals is None for batch in batches)
        check_results([b.results[0] for b in batches], "b7f9f247dfea9432")

    def test_run_streamed_summary_mode(self):
        configs = [
            NetworkConfig(k=2, n_stages=3, p=p, seed=70 + i, track_limit=0)
            for i, p in enumerate([0.3, 0.6, 0.45])
        ]
        batches = per_row(configs, 600, 80)
        check_results([b.results[0] for b in batches], "fbb5c9e184d2ea85")

    def test_run_streamed_summary_mode_seeds(self):
        """Three seeds of one scenario: the totals a stack merges."""
        config = NetworkConfig(k=2, n_stages=3, p=0.45, track_limit=0)
        configs = [replace(config, seed=s) for s in (70, 71, 72)]
        batch = run_streamed(configs, 600, warmup=80)
        check_results(batch.results, "8ee9898a91afd330")
        assert fingerprint(totals_fields(batch.totals)) == "0bb705942ac42b05"


#: rows of the one-block anchor: a favourite bias on omega, bulks of
#: two, four-packet messages, a size mix and plain uniform traffic
ONE_BLOCK_BASE = NetworkConfig(k=2, n_stages=3, p=0.3, topology="omega")
ONE_BLOCK_ROWS = [
    replace(ONE_BLOCK_BASE, p=0.3, q=0.3, seed=91),
    replace(ONE_BLOCK_BASE, p=0.2, bulk_size=2, seed=92),
    replace(ONE_BLOCK_BASE, p=0.12, message_size=4, seed=93),
    replace(ONE_BLOCK_BASE, p=0.3, sizes=(1, 3), probabilities=(0.6, 0.4), seed=94),
    replace(ONE_BLOCK_BASE, p=0.55, seed=95),
]


class TestOneBlockPins:
    """Streamed runs of exactly one 256-cycle draw block.

    A replica's first block draws what a whole 256-cycle streamed run
    drew before draws were made in blocks (one ``(256, width)`` coin
    block, destinations, favourite gate, bulk expansion, services), so
    these fingerprints link the block draw to the whole-run draw it
    replaced, bit for bit.
    """

    @pytest.mark.parametrize(
        "rows, expected",
        [
            (ONE_BLOCK_ROWS[:1], "10eeffce056b32e7"),
            (ONE_BLOCK_ROWS[1:], "dfd46e62c2bb487a"),
        ],
        ids=["R1", "R4"],
    )
    def test_tracked(self, rows, expected):
        batches = per_row(rows, 256, 40)
        assert all(batch.totals is None for batch in batches)
        check_results([b.results[0] for b in batches], expected)

    @pytest.mark.parametrize(
        "rows, expected, expected_totals",
        [
            (ONE_BLOCK_ROWS[:1], "9eb23c3d34fc5c24", "b62951fa1a6ec642"),
            (ONE_BLOCK_ROWS[1:], "f302f0ac21645675", None),
        ],
        ids=["R1", "R4"],
    )
    def test_summary_mode(self, rows, expected, expected_totals):
        rows = [replace(row, track_limit=0) for row in rows]
        batches = per_row(rows, 256, 40)
        check_results([b.results[0] for b in batches], expected)
        if expected_totals is not None:
            (batch,) = batches
            assert fingerprint(totals_fields(batch.totals)) == expected_totals


def batch_specs():
    base = NetworkConfig(k=2, n_stages=3, p=0.5, topology="random", width=16)
    return [
        ExperimentSpec(config=replace(base, p=p, seed=s), n_cycles=700, warmup=100)
        for s, p in [(1, 0.3), (2, 0.5), (3, 0.6), (4, 0.5)]
    ]


def test_vectorized_run_many_batch():
    batch = run_many(batch_specs(), vectorize=True)
    assert batch.n_failed == 0
    digests = [o.spec.digest for o in batch.outcomes]
    assert fingerprint(digests) == "7e307cbda6e5acb6"
    assert fingerprint([pinned_fields(r) for r in batch.results()]) == "049725e82fb3b1b8"


def test_streamed_run_many_batch(monkeypatch):
    """Shards of one spec each: the default budget set to one byte."""
    import repro.exec.sharded as sharded

    monkeypatch.setattr(sharded, "DEFAULT_SHARD_MEM", 1)
    batch = run_many(batch_specs(), vectorize=True)
    assert batch.n_failed == 0
    digests = [o.spec.digest for o in batch.outcomes]
    assert fingerprint(digests) == "7e307cbda6e5acb6"
    assert fingerprint([pinned_fields(r) for r in batch.results()]) == "049725e82fb3b1b8"
