"""Compute-backend equivalence: the stage-wise pass vs the pre-drawn loop.

The determinism contract (``docs/backends.md``) says backends are
**bit-identical**, not statistically equivalent.  Two layers enforce it:

* **always-on** -- the pre-drawn kernel algorithm is an ordinary Python
  function (:func:`~repro.simulation.backends.jit.cycle_loop_kernel`);
  passing it interpreted as ``backend=`` runs the per-cycle loop for
  ``R > 1`` in every environment, numba or not, and the NumPy
  backend's stage-wise pass must match it;
* **with numba** -- the same cases re-run through the ``@njit``-compiled
  loop (``backend="numba"``), proving compilation changes nothing.

Every anchor the stacked runs already have -- the seven config
variants, heterogeneous stacked rows, R=1 vs the serial engine -- is
re-asserted here per backend.
"""

import inspect
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulation import stagewise
from repro.simulation.backends import BACKEND_CHOICES, numba_available, resolve_kernel
from repro.simulation.backends.jit import cycle_loop_kernel, run_kernel
from repro.simulation.batched import run_batched, run_stacked
from repro.simulation.engine import ClockedEngine
from repro.simulation.network import NetworkConfig, NetworkSimulator, build_engine
from repro.simulation.streamed import run_streamed

from tests.simulation.test_batched import assert_results_identical

#: every way this suite can drive the pre-drawn loop: interpreted
#: always, compiled when numba is importable
KERNEL_BACKENDS = [pytest.param(cycle_loop_kernel, id="interpreted-kernel")]
if numba_available():
    KERNEL_BACKENDS.append(pytest.param("numba", id="njit"))

ANCHOR_VARIANTS = [
    dict(k=2, n_stages=3, p=0.5, topology="omega"),
    dict(k=2, n_stages=6, p=0.7, topology="random", width=8),
    dict(k=2, n_stages=3, p=0.4, topology="butterfly", bulk_size=2),
    dict(k=2, n_stages=3, p=0.5, topology="baseline", q=0.3),
    dict(k=2, n_stages=3, p=0.3, message_size=3, transfer="store_forward"),
    dict(k=2, n_stages=3, p=0.4, sizes=(1, 3), probabilities=(0.5, 0.5)),
    dict(k=4, n_stages=2, p=0.6, topology="omega"),
]
ANCHOR_IDS = ["omega", "random-deep", "bulk", "favourite", "store-forward",
              "multisize", "k4"]


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------
def stacked_engine(config: NetworkConfig, n_replicas: int) -> ClockedEngine:
    """An engine of ``n_replicas`` copies of ``config``'s network, seeded
    ``config.seed``, ``+ 1``, ..."""
    return build_engine(
        [replace(config, seed=config.seed + r) for r in range(n_replicas)]
    )


class TestResolution:
    def test_choices_and_default(self):
        assert BACKEND_CHOICES == ("numpy", "numba", "auto")
        for run in (run_stacked, run_batched, run_streamed):
            assert inspect.signature(run).parameters["backend"].default == "auto"

    def test_auto_degrades_cleanly_without_numba(self):
        config = NetworkConfig(k=2, n_stages=3, p=0.5, seed=1)
        [result] = run_stacked([config], 800, warmup=0, backend="auto")
        expected = "numba" if numba_available() else "numpy"
        assert result.backend == expected
        # what auto picks here (the perf gate's probe)
        assert resolve_kernel("auto")[1] == expected

    def test_explicit_numpy_always_works(self):
        config = NetworkConfig(k=2, n_stages=3, p=0.5, seed=1)
        [result] = run_stacked([config], 800, warmup=0, backend="numpy")
        assert result.backend == "numpy"

    def test_unknown_backend_name_raises(self):
        config = NetworkConfig(k=2, n_stages=3, p=0.5, seed=1)
        with pytest.raises(SimulationError, match="unknown compute backend"):
            run_stacked([config], 800, warmup=0, backend="cupy")

    @pytest.mark.skipif(numba_available(), reason="needs an env without numba")
    def test_explicit_numba_without_numba_raises_with_reason(self):
        config = NetworkConfig(k=2, n_stages=3, p=0.5, seed=1)
        with pytest.raises(SimulationError, match="not installed"):
            run_stacked([config], 800, warmup=0, backend="numba")

    def test_backend_instance_passes_through(self):
        """A kernel callable is taken as the backend itself."""
        config = NetworkConfig(k=2, n_stages=3, p=0.5, seed=1)
        [result] = run_stacked([config], 800, warmup=0, backend=cycle_loop_kernel)
        assert result.backend == "numba"

    def test_numpy_backend_reports_supported_everywhere(self):
        assert resolve_kernel("numpy") == (None, "numpy")

    def test_resolve_rejects_unsupported_instance(self):
        """An engine mid-run cannot take the pre-drawn loop: the kernel
        evaluates a whole run from cycle 0."""
        engine = stacked_engine(NetworkConfig(k=2, n_stages=3, p=0.5, seed=1), 2)
        engine.run(100)
        with pytest.raises(SimulationError, match="fresh engine"):
            engine.predraw(100, 0)

    def test_stacked_engine_resumes(self):
        """A stacked engine carries its pass state into the next run, as a
        serial one does: 300 + 100 cycles are 400 cycles."""
        config = NetworkConfig(k=2, n_stages=3, p=0.6, topology="random", width=16, seed=4)
        split, whole = stacked_engine(config, 3), stacked_engine(config, 3)
        split.run(300)
        split.run(100)
        whole.run(400)
        for name in ("count", "shift", "total", "total_sq"):
            assert np.array_equal(getattr(split.stats, name), getattr(whole.stats, name))
        assert np.array_equal(split.tracker.waits, whole.tracker.waits)
        for name in ("injected", "completed", "high_water"):
            assert np.array_equal(
                getattr(split.evaluator, name), getattr(whole.evaluator, name)
            )
        assert split.in_flight == whole.in_flight == split.injected - split.completed

    def test_stacked_engine_refuses_observers(self):
        from repro.obs.metrics import MetricsCollector

        engine = stacked_engine(NetworkConfig(k=2, n_stages=3, p=0.5, seed=1), 2)
        with pytest.raises(SimulationError, match="observers"):
            engine.add_observer(MetricsCollector())


# ----------------------------------------------------------------------
# bit-identity anchors, per available kernel backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
class TestKernelEquivalence:
    @pytest.mark.parametrize("kwargs", ANCHOR_VARIANTS, ids=ANCHOR_IDS)
    def test_anchor_variants_bit_identical(self, backend, kwargs):
        config = NetworkConfig(seed=42, **kwargs)
        [ref] = run_batched(config, [42], 1_500, backend="numpy")
        [jit] = run_batched(config, [42], 1_500, backend=backend)
        assert_results_identical(ref, jit)
        assert ref.backend == "numpy" and jit.backend == "numba"

    def test_replica_stack_bit_identical(self, backend):
        config = NetworkConfig(k=2, n_stages=4, p=0.6, topology="random", width=16)
        seeds = [11, 12, 13, 14]
        ref = run_batched(config, seeds, 2_000, backend="numpy")
        jit = run_batched(config, seeds, 2_000, backend=backend)
        for a, b in zip(ref, jit, strict=True):
            assert_results_identical(a, b)

    def test_heterogeneous_stack_bit_identical(self, backend):
        """Rows differing in load/bulk/seed, one stack per row."""
        from dataclasses import replace

        base = NetworkConfig(k=2, n_stages=3, p=0.2, topology="random", width=16)
        for p, bulk, seed in [(0.2, 1, 9), (0.9, 1, 10), (0.4, 2, 11)]:
            config = replace(base, p=p, bulk_size=bulk, seed=seed)
            [ref] = run_stacked([config], 2_000, backend="numpy")
            [jit] = run_stacked([config], 2_000, backend=backend)
            assert_results_identical(ref, jit)
            assert ref.config == jit.config

    def test_wide_cycles_bit_identical(self, backend):
        """Cycles of ~170 arrivals: more than a window's spare draw-buffer
        columns, so the buffer grows mid-window."""
        config = NetworkConfig(k=2, n_stages=2, p=0.9, topology="random", width=64)
        ref = run_batched(config, [5, 6, 7], 600, backend="numpy")
        jit = run_batched(config, [5, 6, 7], 600, backend=backend)
        for a, b in zip(ref, jit, strict=True):
            assert_results_identical(a, b)

    def test_r1_bit_identical_to_serial_engine(self, backend):
        """The chain closes: serial engine == numpy backend == kernel."""
        config = NetworkConfig(k=2, n_stages=3, p=0.5, topology="omega", seed=42)
        serial = NetworkSimulator(config).run(n_cycles=1_500)
        [jit] = run_stacked([config], 1_500, backend=backend)
        assert_results_identical(serial, jit)

    def test_warmup_discards_identically(self, backend):
        config = NetworkConfig(k=2, n_stages=3, p=0.7, seed=5)
        [ref] = run_stacked([config], 1_200, warmup=400, backend="numpy")
        [jit] = run_stacked([config], 1_200, warmup=400, backend=backend)
        assert_results_identical(ref, jit)
        assert ref.warmup == jit.warmup == 400

    def test_finalized_engine_refuses_further_use(self, backend):
        """A kernel's counts land where the pass keeps them, and it keeps
        the queues of the run it evaluated: the engine it finished
        refuses to run on, while one the pass ran resumes."""
        config = NetworkConfig(k=2, n_stages=3, p=0.7, topology="random", width=16, seed=6)
        by_pass, by_kernel = stacked_engine(config, 3), stacked_engine(config, 3)
        by_pass.run(500, warmup=50)
        arrivals = by_kernel.predraw(500, 50)
        run_kernel(
            resolve_kernel(backend)[0], by_kernel.evaluator, 500, 50, arrivals,
            by_kernel.tracker.waits,
        )
        assert by_kernel.now == by_pass.now == 500
        for name in ("injected", "completed", "dropped", "high_water"):
            assert np.array_equal(
                getattr(by_pass.evaluator, name), getattr(by_kernel.evaluator, name)
            ), name
        assert np.array_equal(by_pass.tracker.waits, by_kernel.tracker.waits)
        assert by_pass.in_flight == by_kernel.injected - by_kernel.completed > 0
        with pytest.raises(SimulationError, match="fresh engine"):
            by_kernel.run(100)
        with pytest.raises(SimulationError, match="fresh engine"):
            by_kernel.predraw(100, 0)
        by_pass.run(100)
        assert by_pass.now == 600


class TestKernelEquivalenceWindows(TestKernelEquivalence):
    """The same comparisons with the NumPy pass's windows closed far more
    often: every window edge must leave the pass's carried state (queued
    messages, next-free cycles, high-water marks) exactly right."""

    @pytest.fixture(autouse=True, params=[1, 50, 700])
    def window(self, request, monkeypatch):
        monkeypatch.setattr(stagewise, "WINDOW_MESSAGES", request.param)


# ----------------------------------------------------------------------
# selection is an execution detail
# ----------------------------------------------------------------------
class TestBackendIsNotIdentity:
    def test_result_backend_label_only_differs(self):
        config = NetworkConfig(k=2, n_stages=3, p=0.5, seed=3)
        [a] = run_stacked([config], 800, backend="numpy")
        [b] = run_stacked([config], 800, backend=cycle_loop_kernel)
        assert a.backend != b.backend
        assert_results_identical(a, b)

    def test_timers_label_their_backend(self):
        """A stacked engine times its windows as a serial one does,
        labelled with the pass that ran them."""
        engine = stacked_engine(NetworkConfig(k=2, n_stages=3, p=0.5, seed=3), 2)
        engine.enable_profiling()
        engine.run(300)
        timings = engine.timers.as_dict()
        assert set(timings) == {"predraw", "pass"}
        for phase in ("predraw", "pass"):
            assert timings[phase]["backend"] == "numpy"
