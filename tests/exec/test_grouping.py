"""group_by_shape regression suite: which specs one stacked engine runs.

Grouping is an execution detail of the stacked path: specs that agree
on every shape-fixing field share a group, whatever their seed and
stackable parameters, and no spec or digest is touched -- a spec's
result is the same in any group, so its digest is the serial one.
"""

import numpy as np
import pytest

from repro.exec.runner import run_many
from repro.exec.spec import (
    STACKABLE_CONFIG_FIELDS,
    ExperimentSpec,
    group_by_shape,
)
from repro.simulation.batched import STACK_SHAPE_FIELDS
from repro.simulation.network import NetworkConfig, NetworkSimulator


def spec(n_cycles=1_200, **kwargs):
    defaults = dict(k=2, n_stages=3, p=0.5, topology="random", width=16)
    defaults.update(kwargs)
    return ExperimentSpec(config=NetworkConfig(**defaults), n_cycles=n_cycles)


class TestShapeKeys:
    @pytest.mark.parametrize(
        "variant",
        [
            dict(p=0.3),
            dict(message_size=3),
            dict(sizes=(1, 3), probabilities=(0.5, 0.5)),
            dict(bulk_size=2),
            dict(q=0.2, topology="omega", width=None),
        ],
        ids=["p", "message-size", "sizes", "bulk", "q"],
    )
    def test_stackable_fields_share_a_group(self, variant):
        base = {}
        if "topology" in variant:
            # q>0 needs destination routing; move both specs onto the
            # same banyan so only the stackable field differs
            base = dict(topology="omega", width=None)
            variant = {k: v for k, v in variant.items() if k not in ("topology", "width")}
        specs = [spec(seed=1, **base), spec(seed=2, **{**base, **variant})]
        assert group_by_shape(specs) == [[0, 1]]

    @pytest.mark.parametrize(
        "variant",
        [
            dict(n_stages=4),
            dict(k=4, width=None, topology="omega"),
            dict(width=8),
            dict(transfer="store_forward"),
            dict(track_limit=50_000),
            dict(n_cycles=2_400),
        ],
        ids=["stages", "k", "width", "transfer", "track-limit", "cycles"],
    )
    def test_shape_fields_split_groups(self, variant):
        if "k" in variant:
            a = spec(seed=1, topology="omega", width=None)
        else:
            a = spec(seed=1)
        b = spec(seed=2, **variant)
        assert group_by_shape([a, b]) == [[0], [1]]

    def test_shape_field_lists_are_consistent(self):
        """Every config field is either stackable or shape-fixing
        (plus the seed); the two modules must agree."""
        import dataclasses

        config_fields = {f.name for f in dataclasses.fields(NetworkConfig)}
        covered = set(STACKABLE_CONFIG_FIELDS) | set(STACK_SHAPE_FIELDS) | {"seed"}
        assert covered == config_fields


class TestGroupStructure:
    def test_singletons_interleaved_with_stackable_groups(self):
        specs = [
            spec(seed=1),                 # group A
            spec(seed=2, n_stages=4),     # singleton (shape)
            spec(seed=3, p=0.8),          # group A (stackable diff)
            spec(seed=4, n_cycles=9_99),  # singleton (cycle budget)
            spec(seed=5),                 # group A
        ]
        digests = [s.digest for s in specs]
        assert group_by_shape(specs) == [[0, 2, 4], [1], [3]]
        assert [s.digest for s in specs] == digests

    def test_finite_buffer_groups_never_stack(self):
        """Finite-buffer specs share a shape group, but the stacked path
        runs each of them serially: results equal serial runs."""
        specs = [
            spec(n_cycles=800, seed=s, p=p, buffer_capacity=2)
            for s, p in [(1, 0.5), (2, 0.8)]
        ]
        assert group_by_shape(specs) == [[0, 1]]
        batch = run_many(specs, vectorize=True).raise_on_failure()
        for s, result in zip(specs, batch.results(), strict=True):
            serial = NetworkSimulator(s.config).run(s.n_cycles, warmup=s.warmup)
            assert np.array_equal(result.stage_means, serial.stage_means, equal_nan=True)
            assert result.dropped == serial.dropped
        assert batch.results()[1].dropped > 0
