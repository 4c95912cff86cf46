"""The runtime sanitizer: arming, invariant hooks, error coordinates.

Three layers of evidence:

* the hooks are *quiet* on healthy runs -- and change nothing: a
  sanitized run is bit-identical to an unsanitized one;
* each invariant check raises :class:`SanitizerError` with the
  cycle/stage/replica coordinates a debugger needs;
* a deliberately poisoned kernel (NaN injected into the waiting-time
  stream mid-run) is caught in the window it happens, at the stage-wise
  pass's next window end -- with its replica on stacked and streamed
  runs, without one on serial runs;
* a compiled-loop run is checked when the kernel returns: a kernel that
  miscounts the messages it left queued breaks conservation.
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.errors import SanitizerError
from repro.exec.context import use_execution
from repro.simulation import stagewise
from repro.simulation.backends.jit import cycle_loop_kernel
from repro.simulation.batched import run_stacked
from repro.simulation.network import NetworkConfig, NetworkSimulator
from repro.simulation.sanitize import (
    SANITIZE_ENV,
    check_conservation,
    check_merged_totals,
    check_queue_depths,
    sanitizer_enabled,
)
from repro.simulation.stats import StageAccumulator, StreamingTotals
from repro.simulation.streamed import run_streamed

CFG = NetworkConfig(k=2, n_stages=3, p=0.7, seed=7)


@pytest.fixture
def armed(monkeypatch):
    monkeypatch.setenv(SANITIZE_ENV, "1")


def poison_nan_at(monkeypatch, call_index):
    """Patch ``StageAccumulator.add`` to slip one NaN into the
    waiting-time stream on its ``call_index``-th non-empty call."""
    real_add = StageAccumulator.add
    state = {"calls": 0}

    def poisoned(self, stages, waits):
        if np.asarray(waits).size:
            state["calls"] += 1
            if state["calls"] == call_index:
                waits = np.asarray(waits, dtype=np.float64).copy()
                waits[0] = np.nan
        real_add(self, stages, waits)

    monkeypatch.setattr(StageAccumulator, "add", poisoned)


class TestArming:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        assert not sanitizer_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "ON", "yes"])
    def test_truthy_values_arm(self, monkeypatch, value):
        monkeypatch.setenv(SANITIZE_ENV, value)
        assert sanitizer_enabled()

    @pytest.mark.parametrize("value", ["0", "", "off", "no"])
    def test_falsy_values_do_not(self, monkeypatch, value):
        monkeypatch.setenv(SANITIZE_ENV, value)
        assert not sanitizer_enabled()

    def test_execution_context_exports_and_restores_env(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        with use_execution(sanitize=True):
            assert os.environ[SANITIZE_ENV] == "1"
            assert sanitizer_enabled()
        assert SANITIZE_ENV not in os.environ


class TestCleanRuns:
    def test_serial_run_is_quiet_and_bit_identical(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        plain = NetworkSimulator(CFG).run(400, warmup=50)
        monkeypatch.setenv(SANITIZE_ENV, "1")
        sanitized = NetworkSimulator(CFG).run(400, warmup=50)
        assert np.array_equal(plain.stage_counts, sanitized.stage_counts)
        assert np.array_equal(plain.stage_means, sanitized.stage_means)
        assert plain.injected == sanitized.injected
        assert plain.completed == sanitized.completed

    def test_serial_finite_buffer_run_is_quiet_and_bit_identical(self, monkeypatch):
        """Drops enter the conservation check: injected == completed +
        in_flight + dropped at every window end."""
        cfg = dataclasses.replace(CFG, p=0.9, message_size=2, buffer_capacity=3)
        monkeypatch.setattr(stagewise, "WINDOW_MESSAGES", 300)
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        plain = NetworkSimulator(cfg).run(1_000, warmup=50)
        monkeypatch.setenv(SANITIZE_ENV, "1")
        sanitized = NetworkSimulator(cfg).run(1_000, warmup=50)
        assert sanitized.dropped > 0
        assert np.array_equal(plain.stage_means, sanitized.stage_means)
        assert (plain.injected, plain.completed, plain.dropped) == (
            sanitized.injected, sanitized.completed, sanitized.dropped
        )

    def test_stacked_run_is_quiet(self, armed):
        cfgs = [dataclasses.replace(CFG, seed=s) for s in (1, 2, 3)]
        results = run_stacked(cfgs, 300, warmup=30, backend="numpy")
        assert len(results) == 3

    def test_streamed_run_is_quiet(self, armed):
        cfgs = [dataclasses.replace(CFG, seed=s, track_limit=0) for s in (1, 2)]
        batch = run_streamed(cfgs, 300, warmup=30)
        assert batch.totals is not None and batch.totals.count > 0

    @pytest.mark.parametrize("track_limit", [200_000, 0])
    def test_kernel_runs_are_quiet(self, armed, track_limit):
        """The end-of-run check after the kernel: conservation holds
        against the messages the kernel left queued."""
        cfgs = [dataclasses.replace(CFG, seed=s, track_limit=track_limit) for s in (1, 2)]
        if track_limit:
            run_stacked(cfgs, 300, warmup=30, backend=cycle_loop_kernel)
        run_streamed(cfgs, 300, warmup=30, backend=cycle_loop_kernel)


def miscounting_kernel(*args):
    """The interpreted kernel, reporting one message too many in flight."""
    return cycle_loop_kernel(*args) + 1


class TestKernelEndOfRun:
    def test_stacked_conservation_break_raises(self, armed):
        cfgs = [dataclasses.replace(CFG, seed=s) for s in (1, 2)]
        with pytest.raises(SanitizerError, match="conservation") as info:
            run_stacked(cfgs, 300, warmup=30, backend=miscounting_kernel)
        assert info.value.cycle == 299

    @pytest.mark.parametrize("track_limit", [200_000, 0])
    def test_streamed_conservation_break_raises(self, armed, track_limit):
        cfgs = [dataclasses.replace(CFG, seed=s, track_limit=track_limit) for s in (1, 2)]
        with pytest.raises(SanitizerError, match="conservation"):
            run_streamed(cfgs, 300, warmup=30, backend=miscounting_kernel)

    def test_unarmed_kernel_run_is_not_checked(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        cfgs = [dataclasses.replace(CFG, seed=s) for s in (1, 2)]
        assert len(run_stacked(cfgs, 300, warmup=30, backend=miscounting_kernel)) == 2


class TestNanInjection:
    def test_serial_kernel_nan_raises_with_coordinates(self, armed, monkeypatch):
        """THE acceptance case: a NaN slipped into the waiting-time
        stream raises in the window it happens, with coordinates."""
        monkeypatch.setattr(stagewise, "WINDOW_MESSAGES", 500)
        poison_nan_at(monkeypatch, 5)
        with pytest.raises(SanitizerError) as info:
            NetworkSimulator(CFG).run(2_000, warmup=0)
        err = info.value
        assert err.cycle is not None and err.cycle < 2_000
        assert err.stage is not None
        assert f"[cycle={err.cycle}, stage={err.stage}]" in str(err)
        assert "non-finite" in str(err)

    def test_stacked_kernel_nan_raises_with_replica(self, armed, monkeypatch):
        """Stacked runs are checked at every window end of the pass: the
        NaN is caught in its window, with the replica it poisoned."""
        monkeypatch.setattr(stagewise, "WINDOW_MESSAGES", 500)
        poison_nan_at(monkeypatch, 5)
        cfgs = [dataclasses.replace(CFG, seed=s) for s in (1, 2)]
        with pytest.raises(SanitizerError) as info:
            run_stacked(cfgs, 2_000, warmup=0, backend="numpy")
        err = info.value
        assert err.cycle is not None and err.cycle < 2_000
        assert err.stage is not None and 0 <= err.stage < CFG.n_stages
        assert err.replica is not None and 0 <= err.replica < 2
        assert "non-finite" in str(err)

    def test_streamed_pass_nan_raises_with_replica(self, armed, monkeypatch):
        """The streamed NumPy path checks at every window end: the NaN
        is caught in its window, with the replica it poisoned."""
        monkeypatch.setattr(stagewise, "WINDOW_MESSAGES", 500)
        poison_nan_at(monkeypatch, 5)
        cfgs = [dataclasses.replace(CFG, seed=s) for s in (1, 2)]
        with pytest.raises(SanitizerError) as info:
            run_streamed(cfgs, 2_000, warmup=0, backend="numpy")
        err = info.value
        assert err.cycle is not None and err.cycle < 2_000
        assert err.stage is not None and 0 <= err.stage < CFG.n_stages
        assert err.replica is not None and 0 <= err.replica < 2
        assert "non-finite" in str(err)

    def test_unsanitized_run_does_not_raise(self, monkeypatch):
        """Without arming, the poison sails through (and would surface
        as a silently wrong table entry -- the failure mode the
        sanitizer exists for).  The run is evaluated stage by stage,
        one statistics call per stage and window, so the second call is
        poisoned."""
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        poison_nan_at(monkeypatch, 2)
        result = NetworkSimulator(CFG).run(2_000, warmup=0)
        assert np.isnan(result.stage_means).any()


class TestInvariantChecks:
    def test_conservation_mismatch_raises_with_cycle(self):
        with pytest.raises(SanitizerError) as info:
            check_conservation(10, 5, 2, 1, cycle=7)
        assert info.value.cycle == 7
        assert "[cycle=7]" in str(info.value)
        assert "injected=10" in str(info.value)

    def test_conservation_balance_is_quiet(self):
        check_conservation(10, 5, 4, 1, cycle=7)

    def test_negative_queue_depth_raises(self):
        counts = np.array([0, 3, -1, 2], dtype=np.int64)
        with pytest.raises(SanitizerError) as info:
            check_queue_depths(counts, cycle=12, ports_per_replica=2)
        assert "port 2" in str(info.value)
        assert info.value.replica == 1

    def test_non_negative_depths_are_quiet(self):
        check_queue_depths(np.array([0, 1, 2], dtype=np.int64), cycle=0)


class TestMergeConsistency:
    def _parts(self):
        rng = np.random.default_rng(0)
        totals = rng.integers(1, 50, size=200).astype(np.float64)
        replicas = rng.integers(0, 4, size=200)
        parts = [
            StreamingTotals.from_totals(
                totals[replicas == r], np.zeros((replicas == r).sum(), int), 1
            )
            for r in range(4)
        ]
        return parts

    def test_count_preserving_merge_is_quiet(self, armed):
        parts = self._parts()
        merged = StreamingTotals.concat(parts)
        assert merged.count == sum(p.count for p in parts)

    def test_lossy_merge_raises(self):
        parts = self._parts()
        merged = StreamingTotals.concat(parts)
        merged.counts[0] += 1  # simulate a merge that invented a message
        with pytest.raises(SanitizerError, match="lost messages"):
            check_merged_totals(merged, parts)

    def test_poisoned_replica_moment_raises(self, armed):
        parts = self._parts()
        parts[1].sums_shifted[0] = np.nan
        with pytest.raises(SanitizerError) as info:
            StreamingTotals.concat(parts)
        assert "non-finite per-replica" in str(info.value)
        assert info.value.replica == 1
