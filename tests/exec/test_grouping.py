"""group_by_shape regression suite: which specs one stacked engine runs.

Grouping is an execution detail of the stacked path: a stack holds
seeds of one scenario, so specs share a group iff they differ in
nothing but the config seed (``test_scenario_fields.py`` walks every
config field), and no spec or digest is touched -- a spec's result is
the same in any group, so its digest is the serial one.
"""

import numpy as np
import pytest

from repro.exec.runner import run_many
from repro.exec.spec import ExperimentSpec, group_by_shape
from repro.simulation.network import NetworkConfig, NetworkSimulator


def spec(n_cycles=1_200, **kwargs):
    defaults = dict(k=2, n_stages=3, p=0.5, topology="random", width=16)
    defaults.update(kwargs)
    return ExperimentSpec(config=NetworkConfig(**defaults), n_cycles=n_cycles)


class TestShapeKeys:
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


class TestGroupStructure:
    def test_singletons_interleaved_with_stackable_groups(self):
        specs = [
            spec(seed=1),                 # group A
            spec(seed=2, n_stages=4),     # singleton (shape)
            spec(seed=3),                 # group A (another seed)
            spec(seed=4, n_cycles=9_99),  # singleton (cycle budget)
            spec(seed=5),                 # group A
        ]
        digests = [s.digest for s in specs]
        assert group_by_shape(specs) == [[0, 2, 4], [1], [3]]
        assert [s.digest for s in specs] == digests

    def test_finite_buffer_groups_stack(self):
        """Finite-buffer seeds of one scenario share a group, and the
        stacked path runs it as one stack: results equal serial runs."""
        specs = [spec(n_cycles=800, seed=s, p=0.8, buffer_capacity=2) for s in (1, 2)]
        assert group_by_shape(specs) == [[0, 1]]
        batch = run_many(specs, vectorize=True).raise_on_failure()
        for s, result in zip(specs, batch.results(), strict=True):
            serial = NetworkSimulator(s.config).run(s.n_cycles, warmup=s.warmup)
            assert np.array_equal(result.stage_means, serial.stage_means, equal_nan=True)
            assert result.dropped == serial.dropped
        assert batch.results()[1].dropped > 0
