"""Span recording around the program's public callables, from outside.

``install()`` imports the program's layer modules, wraps each public
callable listed in :func:`_targets` with a recorder, and rebinds every
module-level alias of a wrapped function, so the program runs unchanged
except for the timing around its calls.  Nothing under ``src/`` knows
about it.

A span is ``(name, parent, start, end)``; the process id and the trace id
of the workload run are stored once per file.  Each thread keeps its own
stack, so a span's self time -- its duration minus the part its children
cover -- is computed when it closes.  Hot leaf calls (queue operations,
per-cycle draws, statistics updates, analytic series, digests) are only
aggregated per name; every other span is kept whole.

Spans stay in memory.  A process forked from a traced one (a pool
worker) starts empty and appends its spans to ``<trace dir>/<pid>.jsonl``
each time its outermost span closes, because pool workers leave through
``os._exit`` and never run exit handlers.  The process that called
``install()`` writes its file when :meth:`Tracer.flush` is called.
:func:`merge` reads every file back.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
import types
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Layers whose spans are aggregated per name instead of kept whole:
#: they run once or more per simulated cycle.
HOT_LAYERS = frozenset({"switch", "predraw", "stats", "analytic", "spec"})

#: Layers in the order the per-layer metrics are reported.
LAYERS = (
    "loop", "switch", "predraw", "stats", "analytic", "spec",
    "cache", "runner", "sharded", "http", "jobs",
)


class _ThreadState:
    __slots__ = ("stack", "agg", "spans", "counters", "violations")

    def __init__(self) -> None:
        self.stack: List[list] = []       # [child_seconds, name] per open span
        self.agg: Dict[str, list] = {}    # name -> [calls, total_s, self_s]
        self.spans: List[tuple] = []      # (name, parent, start, end)
        self.counters: Dict[str, int] = {}
        self.violations = 0               # children covering more than their parent


def _add_into(agg: Dict[str, list], counters: Dict[str, int],
              more_agg: Dict[str, list], more_counters: Dict[str, int]) -> None:
    """Add per-name ``[calls, total_s, self_s]`` and work counters into running sums."""
    for name, (calls, total, self_s) in more_agg.items():
        slot = agg.setdefault(name, [0, 0.0, 0.0])
        slot[0] += calls
        slot[1] += total
        slot[2] += self_s
    for key, value in more_counters.items():
        counters[key] = counters.get(key, 0) + value


class Tracer:
    """Per-process span store; one per traced process."""

    def __init__(self, out_dir: Path, trace_id: str) -> None:
        self.out_dir = Path(out_dir)
        self.trace_id = trace_id
        self.layer_of: Dict[str, str] = {}
        self.paused = False
        self.forked = False
        self.root_parent: Optional[str] = None
        self._lock = threading.Lock()
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []

    def _after_fork(self) -> None:
        # the forking thread's open span becomes the parent of this
        # process's outermost spans (a pool worker's shards belong to the
        # call that started the pool)
        try:
            stack = self._local.state.stack
        except AttributeError:
            stack = []
        self.root_parent = stack[-1][1] if stack else None
        self._lock = threading.Lock()
        self._reset()
        self.forked = True

    def _state(self) -> _ThreadState:
        """This thread's state, created on its first span."""
        state = _ThreadState()
        with self._lock:
            self._states.append(state)
        self._local.state = state
        return state

    def wrap(self, fn: Callable, name: str, layer: str,
             post: Optional[Callable] = None) -> Callable:
        """``fn`` with a span named ``name`` around every call.

        ``post(counters, result)`` runs after a successful call and may
        add work counts (message-hops, cache hits) to the span's thread.
        """
        self.layer_of[name] = layer
        keep = layer not in HOT_LAYERS
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            try:
                state = tracer._local.state
            except AttributeError:
                state = tracer._state()
            stack = state.stack
            frame = [0.0, name]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(state, frame, start, perf(), keep)
                raise
            end = perf()
            if post is not None:
                post(state.counters, result)
            tracer._close(state, frame, start, end, keep)
            return result

        return functools.update_wrapper(traced, fn)

    def _close(self, state: _ThreadState, frame: list, start: float, end: float,
               keep: bool) -> None:
        stack = state.stack
        stack.pop()
        duration = end - start
        child = frame[0]
        if child > duration:
            state.violations += 1
        entry = state.agg.get(frame[1])
        if entry is None:
            entry = state.agg[frame[1]] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if keep:
            parent = stack[-1][1] if stack else self.root_parent
            state.spans.append((frame[1], parent, start, end))
        if stack:
            stack[-1][0] += duration
        elif self.forked:
            self.flush()

    def flush(self) -> None:
        """Append everything recorded since the last flush to this process's file."""
        with self._lock:
            states = list(self._states)
        agg: Dict[str, list] = {}
        counters: Dict[str, int] = {}
        spans: List[tuple] = []
        violations = 0
        for state in states:
            _add_into(agg, counters, state.agg, state.counters)
            spans.extend(state.spans)
            violations += state.violations
            state.agg, state.counters, state.spans = {}, {}, []
            state.violations = 0
        if not agg and not counters:
            return
        record = {
            "trace_id": self.trace_id,
            "pid": os.getpid(),
            "forked": self.forked,
            "layer_of": {n: self.layer_of[n] for n in agg},
            "agg": agg,
            "counters": counters,
            "spans": spans,
            "violations": violations,
        }
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")


# ----------------------------------------------------------------------
# what gets wrapped
# ----------------------------------------------------------------------

def _count_hops(counters: Dict[str, int], results) -> None:
    """Message-hops offered to the cycle loop: injected messages x stages."""
    for r in results:
        counters["msgs"] = counters.get("msgs", 0) + int(r.injected)
        counters["msg_hops"] = counters.get("msg_hops", 0) + int(r.injected) * int(
            r.config.n_stages
        )


def _hops_of_result(counters, result) -> None:
    _count_hops(counters, [result])


def _hops_of_batch(counters, batch) -> None:
    _count_hops(counters, batch.results)


def _cache_outcome(counters, result) -> None:
    key = "cache_misses" if result is None else "cache_hits"
    counters[key] = counters.get(key, 0) + 1


def _public_methods(cls) -> List[str]:
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value) and not isinstance(value, type)
    ]


def _targets() -> List[tuple]:
    """``(layer, owner, attribute, post)`` for every wrapped callable."""
    from repro.api import jobs, server
    from repro.core.first_stage import FirstStageQueue
    from repro.core.later_stages import LaterStageModel
    from repro.core.total_delay import NetworkDelayModel
    from repro.exec import cache, runner, sharded, spec
    from repro.service import base as service_base
    from repro.simulation import (
        batched, network, rng, stats, streamed, switch, topology, traffic,
    )

    services = [
        cls for cls in _subclasses(service_base.ServiceProcess)
        if "sample" in vars(cls) and not getattr(vars(cls)["sample"], "__isabstractmethod__", False)
    ]
    targets = [
        ("loop", network.NetworkSimulator, "run", _hops_of_result),
        ("loop", batched, "run_stacked", _count_hops),
        ("loop", streamed, "run_streamed", _hops_of_batch),
        ("switch", switch.RingBufferQueues, "push_batch", None),
        ("switch", switch.RingBufferQueues, "pop", None),
        ("switch", switch.RingBufferQueues, "peek", None),
        ("predraw", traffic.NetworkTrafficGenerator, "generate", None),
        ("predraw", traffic.NetworkTrafficGenerator, "generate_batch", None),
        ("predraw", rng, "spawn_rngs", None),
        ("predraw", topology.MultistageTopology, "entry_queue", None),
        *[("predraw", cls, "sample", None) for cls in services],
        ("stats", stats.StageAccumulator, "add", None),
        ("stats", stats.TrackedMessages, "record", None),
        ("stats", stats.BatchedTrackedMessages, "record", None),
        ("stats", stats.StreamingTotals, "from_totals", None),
        ("stats", stats, "batch_means_ci", None),
        *[
            ("analytic", cls, name, None)
            for cls in (LaterStageModel, NetworkDelayModel, FirstStageQueue)
            for name in _public_methods(cls)
        ],
        ("spec", spec.ExperimentSpec, "digest", None),
        ("cache", cache.ResultCache, "get", _cache_outcome),
        ("cache", cache.ResultCache, "put", None),
        ("cache", cache, "result_to_payload", None),
        ("cache", cache, "payload_to_result", None),
        ("runner", runner, "run_many", None),
        ("sharded", sharded, "stream_totals", None),
        ("sharded", stats.StreamingTotals, "concat", None),
        ("http", server.ApiHandler, "do_POST", None),
        ("http", server.ApiHandler, "do_GET", None),
        ("jobs", jobs.JobManager, "submit", None),
        ("jobs", jobs, "result_summary", None),
        # the SSE handler blocks here until the job ends: waiting, not
        # HTTP work, so it is its own layer and is not reported as busy
        ("wait", jobs.JobManager, "wait_events", None),
    ]
    return targets


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _install_one(tracer: Tracer, layer: str, owner, attr: str, post) -> None:
    owner_name = owner.__name__.rsplit(".", 1)[-1]
    name = f"{owner_name}.{attr}"
    raw = vars(owner)[attr]
    if isinstance(raw, property):
        setattr(owner, attr, property(tracer.wrap(raw.fget, name, layer, post)))
    elif isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name, layer, post)))
    else:
        wrapped = tracer.wrap(raw, name, layer, post)
        setattr(owner, attr, wrapped)
        if isinstance(owner, types.ModuleType):
            # ``from module import fn`` made copies of the name elsewhere
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro"):
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, key, wrapped)


def install(out_dir, trace_id: str) -> Tracer:
    """Wrap the program's layer entry points; returns the process tracer."""
    tracer = Tracer(Path(out_dir), trace_id)
    for layer, owner, attr, post in _targets():
        _install_one(tracer, layer, owner, attr, post)
    return tracer


def install_from_env() -> Optional[Tracer]:
    """:func:`install` when ``BENCH_TRACE_DIR`` is set (traced child processes)."""
    out_dir = os.environ.get("BENCH_TRACE_DIR")
    if not out_dir:
        return None
    return install(out_dir, os.environ.get("BENCH_TRACE_ID", "trace"))


def span_cost_seconds(n: int = 20_000) -> float:
    """Measured cost a recorder adds to one call, on this machine."""
    tracer = Tracer(Path("."), "calibration")  # never flushed

    def noop():
        return None

    traced = tracer.wrap(noop, "calibration.noop", "calibration")
    perf = time.perf_counter
    best = float("inf")
    for _ in range(3):
        t0 = perf()
        for _ in range(n):
            noop()
        t1 = perf()
        for _ in range(n):
            traced()
        t2 = perf()
        best = min(best, ((t2 - t1) - (t1 - t0)) / n)
    return max(best, 0.0)


# ----------------------------------------------------------------------
# reading traces back
# ----------------------------------------------------------------------

def _covered(interval: tuple, children: List[tuple]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    covered, reach = 0.0, lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def merge(trace_dir) -> dict:
    """Sum every process file under ``trace_dir`` into one trace.

    Spans of forked processes whose parent is open in another process
    (pool shards under the call that started the pool) are subtracted from that parent's
    self time here, by the union of their intervals: the monotonic clock
    is shared by every process on the machine.
    """
    agg: Dict[str, list] = {}
    layer_of: Dict[str, str] = {}
    counters: Dict[str, int] = {}
    spans: List[tuple] = []
    remote: List[tuple] = []   # (parent, start, end) of forked outermost spans
    violations = 0
    pids = set()
    trace_ids = set()
    for path in sorted(Path(trace_dir).glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            pids.add(record["pid"])
            trace_ids.add(record["trace_id"])
            layer_of.update(record["layer_of"])
            _add_into(agg, counters, record["agg"], record["counters"])
            for name, parent, start, end in record["spans"]:
                spans.append((name, parent, start, end))
                if record["forked"] and parent is not None:
                    remote.append((parent, start, end))
            violations += record["violations"]

    for name in {parent for parent, _, _ in remote}:
        covered = 0.0
        for span_name, _, start, end in spans:
            if span_name == name:
                covered += _covered((start, end), [
                    (s, e) for p, s, e in remote if p == name and start <= s <= end
                ])
        if name in agg:
            if covered > agg[name][2] + 1e-3:
                violations += 1
            agg[name][2] = max(0.0, agg[name][2] - covered)
    return {
        "agg": agg,
        "layer_of": layer_of,
        "counters": counters,
        "spans": spans,
        "violations": violations,
        "pids": sorted(pids),
        "trace_ids": sorted(trace_ids),
    }


def layer_metrics(trace: dict, run: dict) -> Dict[str, tuple]:
    """Per-layer metrics ``name -> (value, unit)`` of one traced run.

    ``run`` is the workload's result: its wall time is the denominator of
    every ``*.self_pct`` (summed over processes, so a pool can exceed
    100), and it carries the client-side request phases and the pool size.
    A per-call cost is 0 where the workload never enters the layer.
    """
    agg, layer_of, counters = trace["agg"], trace["layer_of"], trace["counters"]
    wall = run["run_wall_s"]

    def total(names, column):
        return sum(agg[n][column] for n in names if n in agg)

    def in_layer(layer):
        return [n for n in agg if layer_of.get(n) == layer]

    def per(numerator, denominator, scale):
        return numerator / denominator * scale if denominator else 0.0

    out: Dict[str, tuple] = {}
    for layer in LAYERS:
        names = in_layer(layer)
        out[f"{layer}.self_pct"] = (100.0 * total(names, 2) / wall, "%")
        out[f"{layer}.calls"] = (total(names, 0), "count")

    hops = counters.get("msg_hops", 0)
    out["loop.msg_hops"] = (hops, "count")
    out["loop.ns_per_msg_hop"] = (per(total(in_layer("loop"), 1), hops, 1e9), "ns/hop")
    for layer in ("switch", "stats"):
        names = in_layer(layer)
        out[f"{layer}.ns_per_call"] = (per(total(names, 2), total(names, 0), 1e9), "ns/call")
    out["predraw.ns_per_msg"] = (
        per(total(in_layer("predraw"), 2), counters.get("msgs", 0), 1e9), "ns/msg")
    spec = in_layer("spec")
    out["spec.us_per_digest"] = (per(total(spec, 2), total(spec, 0), 1e6), "us/call")

    out["cache.hits"] = (counters.get("cache_hits", 0), "count")
    out["cache.misses"] = (counters.get("cache_misses", 0), "count")
    for op in ("get", "put"):
        name = [f"ResultCache.{op}"]
        out[f"cache.us_per_{op}"] = (per(total(name, 1), total(name, 0), 1e6), "us/call")

    shard_s = [end - start for name, _, start, end in trace["spans"]
               if name == "streamed.run_streamed"]
    out["sharded.shards"] = (len(shard_s), "count")
    out["sharded.shard_p50_ms"] = (
        1e3 * sorted(shard_s)[len(shard_s) // 2] if shard_s else 0.0, "ms/shard")
    concat = ["StreamingTotals.concat"]
    out["sharded.merge_us"] = (per(total(concat, 1), total(concat, 0), 1e6), "us/call")
    dispatch_s = total(["sharded.stream_totals"], 1)
    out["sharded.busy_pct"] = (
        per(sum(shard_s), dispatch_s * run.get("pool_workers", 1), 100.0), "%")

    http = in_layer("http")
    out["http.us_per_handler"] = (per(total(http, 2), total(http, 0), 1e6), "us/call")
    for phase in ("post", "events", "get"):
        out[f"http.{phase}_p50_ms"] = (run["phases_p50_ms"].get(phase, 0.0), "ms/req")
    submit = ["JobManager.submit"]
    out["jobs.us_per_submit"] = (per(total(submit, 1), total(submit, 0), 1e6), "us/call")

    n_spans = sum(entry[0] for entry in agg.values())
    out["trace.spans"] = (n_spans, "count")
    out["trace.overhead_pct"] = (100.0 * n_spans * run["span_cost_s"] / wall, "%")
    return out
