"""Backend selection is an execution detail, never an identity.

The compute backends (:mod:`repro.simulation.backends`) must
be invisible to everything content-addressed: spec digests, cache keys,
vectorize grouping, and cached payloads.  These tests pin that down,
plus the plumbing that carries ``backend=`` from the CLI/context down
to :func:`~repro.simulation.batched.run_stacked`.
"""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.exec.cache import ResultCache
from repro.exec.context import ExecutionContext, run_batch, use_execution
from repro.exec.runner import run_many
from repro.exec.spec import ExperimentSpec, group_for_vectorize
from repro.simulation.backends.jit import cycle_loop_kernel
from repro.simulation.network import NetworkConfig


def make_specs(n=3, **kwargs):
    base = dict(k=2, n_stages=3, p=0.5, topology="random", width=16)
    base.update(kwargs)
    return [
        ExperimentSpec(
            config=NetworkConfig(seed=s, **base), n_cycles=800, warmup=0,
            label=f"s{s}",
        )
        for s in range(1, n + 1)
    ]


class TestBackendAbsentFromIdentity:
    def test_identity_has_no_backend_key(self):
        [spec] = make_specs(1)
        identity = spec.identity()
        flat = str(identity)
        assert "backend" not in flat
        assert "numba" not in flat

    def test_digest_ignores_ambient_backend(self):
        specs_a = make_specs()
        with use_execution(backend="numpy"):
            digests_numpy = [s.digest for s in make_specs()]
        with use_execution(backend="auto"):
            digests_auto = [s.digest for s in make_specs()]
        assert digests_numpy == digests_auto == [s.digest for s in specs_a]

    def test_grouping_ignores_backend(self):
        """group_for_vectorize partitions by shape, never by backend."""
        specs = make_specs(4)
        _, groups_a = group_for_vectorize(specs)
        with use_execution(backend="numpy"):
            _, groups_b = group_for_vectorize(make_specs(4))
        assert groups_a == groups_b


class TestRunManyBackend:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ExecutionError, match="backend must be one of"):
            run_many(make_specs(1), backend="cupy")

    def test_accepts_each_choice_serially(self):
        """Serial (non-vectorized) paths take any backend value and
        always run the reference engine."""
        for backend in ("numpy", "numba", "auto"):
            batch = run_many(make_specs(1), backend=backend)
            assert batch.n_failed == 0
            assert batch.results()[0].backend == "numpy"

    def test_vectorized_backend_numpy_matches_default(self):
        specs = make_specs()
        a = run_many(specs, vectorize=True, backend="numpy").results()
        b = run_many(specs, vectorize=True).results()
        for ra, rb in zip(a, b, strict=True):
            assert np.array_equal(ra.stage_means, rb.stage_means)
            assert np.array_equal(ra.stage_variances, rb.stage_variances)
            assert ra.injected == rb.injected

    def test_vectorized_results_identical_across_backends(self):
        """The whole exec path: numpy group run == pre-drawn kernel run.

        run_many only accepts backend *names*, so the kernel side goes
        through run_stacked directly with the same grouped spec list.
        """
        from repro.simulation.batched import run_stacked

        specs = make_specs()
        via_runner = run_many(specs, vectorize=True, backend="numpy").results()
        via_kernel = run_stacked(
            [s.config for s in via_runner],
            specs[0].n_cycles,
            warmup=specs[0].warmup,
            backend=cycle_loop_kernel,
        )
        for ra, rb in zip(via_runner, via_kernel, strict=True):
            assert np.array_equal(ra.stage_means, rb.stage_means)
            assert np.array_equal(ra.stage_variances, rb.stage_variances)
            assert np.array_equal(ra.stage_counts, rb.stage_counts)
            assert ra.injected == rb.injected
            assert ra.completed == rb.completed
            assert ra.max_occupancy == rb.max_occupancy


class TestCacheAcrossBackends:
    def test_cache_hit_regardless_of_backend_setting(self, tmp_path):
        """A result computed under one backend setting is served from
        cache under any other -- the key carries no backend."""
        cache = ResultCache(tmp_path)
        specs = make_specs()
        first = run_many(specs, vectorize=True, backend="numpy", cache=cache)
        assert first.n_simulated == len(specs)
        second = run_many(specs, vectorize=True, backend="auto", cache=cache)
        assert second.n_cached == len(specs)
        for ra, rb in zip(first.results(), second.results(), strict=True):
            assert np.array_equal(ra.stage_means, rb.stage_means)
            # rehydrated payloads carry no backend: the label defaults
            assert rb.backend == "numpy"


class TestExecutionContext:
    def test_default_backend_is_auto(self):
        assert ExecutionContext().backend == "auto"

    def test_context_threads_backend_into_run_batch(self):
        captured = {}

        import repro.exec.context as context_mod

        original = context_mod.run_many

        def spy(specs, **kwargs):
            captured.update(kwargs)
            return original(specs, **kwargs)

        context_mod.run_many = spy
        try:
            with use_execution(backend="numpy", vectorize=True):
                run_batch(make_specs(1))
        finally:
            context_mod.run_many = original
        assert captured["backend"] == "numpy"
        assert captured["vectorize"] is True
