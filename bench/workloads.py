"""One benchmark workload, run in a process of its own.

``run.py`` starts ``python3 bench/workloads.py --workload NAME ...`` so that
each workload gets a fresh interpreter and its whole process tree (pool
workers, the HTTP server) is measured by one ``wait4``.  The workload
calls only the program's public entry points, checks every output against
an independent oracle, and writes ``result.json`` into ``--run-dir``.

Every operation draws its inputs from ``--seed`` and its own index, so
operation ``i`` does identical work in every run with the same seed, traced
or not.  Operations repeat until ``--seconds`` have passed (at least one).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

#: ``full`` is the benchmark; ``tiny`` keeps every code path at a size the
#: benchmark's own test can run in seconds.
SIZES = {
    "full": {
        "setup_repeats": 3,
        "table_I": {},
        "table_totals": {},
        "table_cycles": 2000,
        "sweep": {"n_cycles": 6000},
        "stream": {"replicas": 10_000, "n_cycles": 200, "warmup": 20,
                   "shard_mib": 64, "workers": 2},
        "service": {"n_cycles": 600, "warmup": 100, "warm_specs": 25,
                    "dedup_specs": 20},
    },
    "tiny": {
        "setup_repeats": 1,
        "table_I": {"loads": (0.5,), "n_stages": 3},
        "table_totals": {"depths": (3,)},
        "table_cycles": 1000,
        "sweep": {"n_cycles": 1500, "loads": (0.4, 0.8), "n_stages": 3},
        "stream": {"replicas": 400, "n_cycles": 200, "warmup": 20,
                   "shard_mib": 2, "workers": 2},
        "service": {"n_cycles": 600, "warmup": 100, "warm_specs": 3,
                    "dedup_specs": 3},
    },
}

#: Relative tolerance of the table oracles.  Over 60 seeds at 2000 cycles
#: the per-column error of Table I w1 had a standard deviation of 1.3-2.3 %
#: (largest |error| 5.2 %, at p = 0.2), and Table X totals a bias of up to
#: +2.6 % with a standard deviation of 1.6-1.8 % (largest 7.2 %, n = 3):
#: 10 % is at least 4 standard deviations from every column's mean.
TABLE_TOLERANCE = 0.10

#: Modules a user's first command imports before any work starts.
ENTRY_MODULES = {
    "tables": ("repro.analysis.tables",),
    "sweep-vectorized": ("repro.analysis.sweeps", "repro.exec.context"),
    "stream": ("repro.exec.sharded",),
}


def _perturbation() -> float:
    """Factor applied to every checked output before its oracle sees it.

    ``REPRO_BENCH_PERTURB`` exists so the benchmark's own test can show
    that each oracle fires; it is ``1`` in every measured run.
    """
    return float(os.environ.get("REPRO_BENCH_PERTURB", "1"))


def child_env() -> Dict[str, str]:
    """Environment for a child interpreter that imports the program."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _fingerprint(values) -> str:
    blob = json.dumps([float(v) for v in values]).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def percentile_summary(samples_ms: List[float]) -> Dict[str, float]:
    """Median plus the highest percentile with at least ten samples beyond it."""
    out = {"n": len(samples_ms), "p50": statistics.median(samples_ms)}
    n = len(samples_ms)
    for q in (99, 90, 75):
        if n * (100 - q) / 100 >= 10:
            cuts = statistics.quantiles(samples_ms, n=100, method="inclusive")
            out[f"p{q}"] = cuts[q - 1]
            break
    return out


class Recorder:
    """Times operations, checks them, and counts failures."""

    KEEP_OPS = 20

    def __init__(self) -> None:
        self.latencies_ms: List[float] = []
        self.failures: List[str] = []
        self.failed = 0
        self.ops: List[dict] = []
        self.phases: Dict[str, List[float]] = {}

    def op(self, i: int, run: Callable[[], object],
           check: Callable[[object], tuple]) -> None:
        """Time ``run()``; ``check(output)`` returns ``(problems, fingerprint)``."""
        t0 = time.perf_counter()
        elapsed = None
        try:
            output = run()
            elapsed = time.perf_counter() - t0
            problems, fingerprint = check(output)
        except Exception as exc:  # a failed operation is a result, not a crash
            if elapsed is None:
                elapsed = time.perf_counter() - t0
            problems, fingerprint = [f"op {i}: {exc!r}"], None
        self.latencies_ms.append(elapsed * 1e3)
        if problems:
            self.failed += 1
            self.failures.extend(problems[: max(0, 10 - len(self.failures))])
        if len(self.ops) < self.KEEP_OPS:
            self.ops.append({"i": i, "ms": elapsed * 1e3, "ok": not problems,
                             "fingerprint": fingerprint})

    def phase(self, name: str, seconds: float) -> None:
        self.phases.setdefault(name, []).append(seconds * 1e3)

    def fail_all(self, reason: str) -> None:
        """A run-level oracle failed: no operation of the run can be trusted."""
        self.failed = len(self.latencies_ms)
        self.failures.append(reason)


def repeat_for(seconds: float, body: Callable[[int], None], collect: bool = False) -> float:
    """Call ``body(i)`` for i = 0, 1, ... until ``seconds`` pass; returns the window.

    ``collect`` runs the cyclic garbage collector after each call.  The
    compute workloads stand for one command per process, and their results
    are freed only by that collector: without it, peak memory grew from
    184 MiB after one table operation to 247-320 MiB after three or four,
    depending on when the collector happened to run.
    """
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        body(i)
        if collect:
            gc.collect()
        i += 1
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# set-up time
# ----------------------------------------------------------------------

def _time_import(modules) -> float:
    code = "".join(f"import {m}\n" for m in modules) + "print('ready', flush=True)\n"
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                            text=True, env=child_env())
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"import probe for {modules} failed ({proc.returncode})")
    return ready


# ----------------------------------------------------------------------
# the service under test
# ----------------------------------------------------------------------

class Server:
    """``repro serve --port 0`` as a child process (traced through the bootstrap)."""

    START_TIMEOUT = 60.0

    def __init__(self, cache_dir: Path, log_path: Path, traced: bool) -> None:
        program = ([str(BENCH / "traced_main.py")] if traced else ["-m", "repro"])
        cmd = [sys.executable, *program, "serve", "--port", "0",
               "--cache", str(cache_dir), "--quiet"]
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self.log,
                                     text=True, env=child_env())
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], self.START_TIMEOUT)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("listening on "):
                raise RuntimeError(f"server did not start (see {log_path.name})")
            self.url = line.split()[-1]
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """SIGINT is the documented way to stop ``repro serve``; wait for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def _service_payload(sizes: dict, seed: int) -> dict:
    config = {"k": 2, "n_stages": 3, "p": 0.5, "topology": "random",
              "width": 32, "seed": seed}
    return {"spec": {"config": config, "n_cycles": sizes["n_cycles"],
                     "warmup": sizes["warmup"]}}


def _request(client, payload: dict, rec: Optional[Recorder] = None) -> dict:
    """One ``repro submit --wait`` round trip: POST, the SSE stream to its end, GET."""
    t0 = time.perf_counter()
    accepted = client.submit(payload)["runs"][0]
    t1 = time.perf_counter()
    client.events(accepted["digest"])
    t2 = time.perf_counter()
    final = client.run(accepted["digest"])
    t3 = time.perf_counter()
    if rec is not None:
        rec.phase("post", t1 - t0)
        rec.phase("events", t2 - t1)
        rec.phase("get", t3 - t2)
    final["cached"] = accepted["cached"]
    return final


def _result_doc(final: dict) -> str:
    result = dict(final["result"])
    factor = _perturbation()
    if factor != 1.0:
        result["stage_means"] = [result["stage_means"][0] * factor,
                                 *result["stage_means"][1:]]
    return json.dumps(result, sort_keys=True)


def _populate(client, payloads: List[dict]) -> Dict[str, str]:
    """Run each spec cold once; returns digest -> canonical cold result doc."""
    docs = {}
    for payload in payloads:
        final = _request(client, payload)
        if final.get("status") != "done" or final.get("outcome") != "completed":
            raise RuntimeError(f"populating spec failed: {final.get('error')!r}")
        docs[final["digest"]] = json.dumps(final["result"], sort_keys=True)
    return docs


def _check_repeat(cold_docs: Dict[str, str]) -> Callable[[dict], tuple]:
    """A warm or dedup reply must be served without simulating and equal the cold doc."""
    def check(final: dict) -> tuple:
        problems = []
        if final.get("status") != "done":
            problems.append(f"{final['digest'][:12]}: status {final.get('status')!r}")
        elif not final["cached"]:
            problems.append(f"{final['digest'][:12]}: simulated again instead of served")
        elif _result_doc(final) != cold_docs[final["digest"]]:
            problems.append(f"{final['digest'][:12]}: result differs from the cold run")
        return problems, (_fingerprint(final["result"]["stage_means"])
                          if "result" in final else None)
    return check


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class Context:
    def __init__(self, args, tracer) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.sizes = SIZES["tiny" if args.tiny else "full"]
        self.run_dir = Path(args.run_dir)
        self.traced = tracer is not None
        self.tracer = tracer
        self.rec = Recorder()
        self.extra: Dict[str, object] = {}
        self.setup_samples: List[float] = []
        self.window_s = 0.0

    def reference(self, fn: Callable[[], float]) -> float:
        """An oracle value, computed with span recording paused."""
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            return float(fn())
        finally:
            if self.tracer is not None:
                self.tracer.paused = False

    def measure_setup(self, probe: Callable[[], float]) -> None:
        """Median set-up time over fresh processes (untraced runs only)."""
        if not self.traced:
            self.setup_samples = [probe() for _ in range(self.sizes["setup_repeats"])]


def run_tables(ctx: Context) -> None:
    """``repro table I`` and ``repro table X``: the serial cycle loop, m = 1 and m = 4."""
    from repro.analysis import tables

    ctx.measure_setup(lambda: _time_import(ENTRY_MODULES["tables"]))
    n_cycles = ctx.sizes["table_cycles"]
    factor = _perturbation()

    def body(i: int) -> None:
        seed = ctx.seed * 10_000 + 100 * i

        def run():
            t1 = tables.table_I(n_cycles=n_cycles, seed=seed, **ctx.sizes["table_I"])
            tx = tables.table_totals("X", n_cycles=n_cycles, seed=seed,
                                     **ctx.sizes["table_totals"])
            return t1, tx

        def check(out):
            t1, tx = out
            problems = []
            for col in t1.columns:
                w1 = float(col.stage_means[0]) * factor
                if abs(w1 - col.analysis_mean) > TABLE_TOLERANCE * col.analysis_mean:
                    problems.append(f"op {i} table I {col.label}: w1 {w1:.4f} vs "
                                    f"Theorem 1 {col.analysis_mean:.4f}")
            for row in tx.rows:
                total = row.sim_mean * factor
                if abs(total - row.pred_mean) > TABLE_TOLERANCE * row.pred_mean:
                    problems.append(f"op {i} table X n={row.stages}: total {total:.3f} "
                                    f"vs predicted {row.pred_mean:.3f}")
            values = [v for c in t1.columns for v in c.stage_means]
            values += [r.sim_mean for r in tx.rows]
            return problems, _fingerprint(values)

        ctx.rec.op(i, run, check)

    ctx.window_s = repeat_for(ctx.seconds, body, collect=True)


def run_sweep(ctx: Context) -> None:
    """``repro sweep load --vectorize-replicas``: one stacked loop over loads up to 0.8."""
    from repro.analysis import sweeps
    from repro.exec.context import use_execution

    ctx.measure_setup(lambda: _time_import(ENTRY_MODULES["sweep-vectorized"]))
    factor = _perturbation()

    def body(i: int) -> None:
        seed = ctx.seed * 10_000 + 10 * i

        def run():
            with use_execution(vectorize=True):
                return sweeps.load_sweep(seed=seed, **ctx.sizes["sweep"])

        def check(points):
            problems = []
            for pt in points:
                w1 = pt.first_stage_mean * factor
                exact = pt.predicted_first_mean
                if abs(w1 - exact) > max(3 * pt.first_stage_ci, 0.02 * exact):
                    problems.append(f"op {i} {pt.label}: w1 {w1:.4f} vs Theorem 1 "
                                    f"{exact:.4f} (CI {pt.first_stage_ci:.4f})")
            values = [pt.first_stage_mean for pt in points] + [pt.total_mean for pt in points]
            return problems, _fingerprint(values)

        ctx.rec.op(i, run, check)

    ctx.window_s = repeat_for(ctx.seconds, body, collect=True)


def run_stream(ctx: Context) -> None:
    """``stream_totals``: pre-drawn streamed shards on a process pool, merged."""
    from repro.core.later_stages import LaterStageModel
    from repro.core.total_delay import NetworkDelayModel
    from repro.exec.sharded import stream_totals
    from repro.simulation.network import NetworkConfig

    ctx.measure_setup(lambda: _time_import(ENTRY_MODULES["stream"]))
    size = ctx.sizes["stream"]
    config = NetworkConfig(k=2, n_stages=2, p=0.5)
    expected = ctx.reference(
        lambda: NetworkDelayModel(stages=2, model=LaterStageModel(k=2, p=0.5))
        .total_waiting_mean()
    )
    factor = _perturbation()
    ctx.extra["pool_workers"] = size["workers"]

    def body(i: int) -> None:
        base_seed = ctx.seed * 10_000_000 + i * size["replicas"]

        def run():
            return stream_totals(
                config, size["replicas"], size["n_cycles"], warmup=size["warmup"],
                base_seed=base_seed, shard_mem=size["shard_mib"] << 20,
                workers=size["workers"],
            )

        def check(out):
            problems = []
            mean = out.totals.mean * factor
            if abs(mean - expected) > 0.03 * expected:
                problems.append(f"op {i}: merged mean {mean:.4f} vs predicted {expected:.4f}")
            if out.completed > out.injected:
                problems.append(f"op {i}: completed {out.completed} > injected {out.injected}")
            return problems, _fingerprint([out.totals.mean, out.totals.variance,
                                           out.injected, out.completed])

        ctx.rec.op(i, run, check)

    ctx.window_s = repeat_for(ctx.seconds, body, collect=True)


def _share_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.

    The client waits for each reply, so it and the server never run at
    the same time and one CPU carries the whole exchange.  Left free, each
    hand-off wakes the other CPU, and on a shared virtual machine that
    wake-up costs a varying amount with the host's load: unpinned, the
    median of one 3 s stretch of repeats ranged over 2.4-3.6 ms within
    minutes; pinned, over 2.2-2.5 ms.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _server_probe(ctx: Context, cache_dir: Path) -> Callable[[], float]:
    from repro.api.client import ApiClient

    def probe() -> float:
        t0 = time.perf_counter()
        with Server(cache_dir, ctx.run_dir / "server.log", traced=False) as server:
            ApiClient(server.url).healthz()
            return time.perf_counter() - t0
    return probe


def run_service_cold(ctx: Context) -> None:
    """Distinct specs: every request simulates and writes the cache."""
    from repro.api.client import ApiClient

    _share_one_cpu()

    cache_dir = ctx.run_dir / "cache"
    ctx.measure_setup(_server_probe(ctx, ctx.run_dir / "probe-cache"))
    size = ctx.sizes["service"]
    factor = _perturbation()
    first_stage: List[float] = []

    def check(final: dict) -> tuple:
        problems = []
        if final.get("status") != "done":
            problems.append(f"{final['digest'][:12]}: status {final.get('status')!r} "
                            f"({final.get('error')})")
        elif final["cached"] or final.get("outcome") != "completed":
            problems.append(f"{final['digest'][:12]}: answered without simulating")
        else:
            first_stage.append(final["result"]["stage_means"][0] * factor)
        return problems, (_fingerprint(final["result"]["stage_means"])
                          if "result" in final else None)

    with Server(cache_dir, ctx.run_dir / "server.log", ctx.traced) as server:
        client = ApiClient(server.url, timeout=120)

        def body(i: int) -> None:
            payload = _service_payload(size, ctx.seed * 1_000_000 + i)
            ctx.rec.op(i, lambda: _request(client, payload, ctx.rec), check)

        ctx.window_s = repeat_for(ctx.seconds, body)

    # k = 2, p = 1/2, unit service: Theorem 1 gives w1 = 1/4 exactly.  One
    # request's w1 has a relative standard deviation of 4.2 % (300 seeds),
    # so the tolerance is 3 % or five standard errors of the mean, if wider.
    if first_stage:
        mean = statistics.fmean(first_stage)
        tolerance = max(0.03, 5 * 0.042 / len(first_stage) ** 0.5)
        if abs(mean - 0.25) > tolerance * 0.25:
            ctx.rec.fail_all(f"mean cold w1 {mean:.4f} vs Theorem 1 0.25 "
                             f"over {len(first_stage)} requests")


def run_service_warm(ctx: Context) -> None:
    """A restarted server answers from the disk cache (its job table is empty)."""
    from repro.api.client import ApiClient

    _share_one_cpu()

    cache_dir = ctx.run_dir / "cache"
    ctx.measure_setup(_server_probe(ctx, ctx.run_dir / "probe-cache"))
    size = ctx.sizes["service"]
    payloads = [_service_payload(size, ctx.seed * 1_000_000 + 500_000 + j)
                for j in range(size["warm_specs"])]
    log = ctx.run_dir / "server.log"
    with Server(cache_dir, log, ctx.traced) as server:
        cold_docs = _populate(ApiClient(server.url, timeout=120), payloads)
    check = _check_repeat(cold_docs)
    counter = iter(range(10**9))

    def round_(_: int) -> None:
        with Server(cache_dir, log, ctx.traced) as server:
            client = ApiClient(server.url, timeout=120)
            for payload in payloads:
                ctx.rec.op(next(counter), lambda p=payload: _request(client, p, ctx.rec),
                           check)

    ctx.window_s = repeat_for(ctx.seconds, round_)


def run_service_dedup(ctx: Context) -> None:
    """Repeats of finished specs: the job table answers."""
    from repro.api.client import ApiClient

    _share_one_cpu()

    cache_dir = ctx.run_dir / "cache"
    ctx.measure_setup(_server_probe(ctx, ctx.run_dir / "probe-cache"))
    size = ctx.sizes["service"]
    payloads = [_service_payload(size, ctx.seed * 1_000_000 + 700_000 + j)
                for j in range(size["dedup_specs"])]
    with Server(cache_dir, ctx.run_dir / "server.log", ctx.traced) as server:
        client = ApiClient(server.url, timeout=120)
        check = _check_repeat(_populate(client, payloads))

        def body(i: int) -> None:
            payload = payloads[i % len(payloads)]
            ctx.rec.op(i, lambda: _request(client, payload, ctx.rec), check)

        ctx.window_s = repeat_for(ctx.seconds, body)


RUNNERS = {
    "tables": run_tables,
    "sweep-vectorized": run_sweep,
    "stream": run_stream,
    "service-cold": run_service_cold,
    "service-warm": run_service_warm,
    "service-dedup": run_service_dedup,
}
WORKLOADS = tuple(RUNNERS)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--run-dir", required=True)
    args = parser.parse_args(argv)

    tracer = None
    span_cost = None
    if args.trace:
        import spans

        span_cost = spans.span_cost_seconds()
        trace_dir = Path(args.run_dir) / "trace"
        trace_id = f"{args.workload}-{args.seed}-{os.getpid()}"
        os.environ["BENCH_TRACE_DIR"] = str(trace_dir)
        os.environ["BENCH_TRACE_ID"] = trace_id
        tracer = spans.install(trace_dir, trace_id)

    ctx = Context(args, tracer)
    started = time.perf_counter()
    try:
        RUNNERS[args.workload](ctx)
    finally:
        run_wall_s = time.perf_counter() - started
        if tracer is not None:
            tracer.flush()

    import numpy

    rec = ctx.rec
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": len(rec.latencies_ms),
        "failed": rec.failed,
        "failures": rec.failures,
        "window_s": ctx.window_s,
        "run_wall_s": run_wall_s,
        "latency_ms": percentile_summary(rec.latencies_ms),
        "phases_p50_ms": {k: statistics.median(v) for k, v in rec.phases.items()},
        "setup_samples_s": ctx.setup_samples,
        "ops": rec.ops,
        "span_cost_s": span_cost,
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        **ctx.extra,
    }
    (Path(args.run_dir) / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
