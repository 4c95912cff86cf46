"""Command-line interface: regenerate any paper table or figure.

Usage::

    python -m repro table I            # Tables I..VI
    python -m repro table VII          # totals Tables VII..XII
    python -m repro figure 5 --stages 6
    python -m repro calibrate          # re-derive Section IV constants
    python -m repro metrics --stages 6 # instrumented run: metrics + timings
    python -m repro batch --workers 4  # parallel scenario batch (cached)
    python -m repro cache stats        # result-cache maintenance
    python -m repro db expectations    # evaluate paper targets vs the ledger
    python -m repro serve --port 8765  # HTTP simulation service (docs/api-service.md)
    python -m repro submit --scenarios smoke --wait   # talk to a running service
    python -m repro all                # everything (paper-grade: slow)

``--cycles`` (or the ``REPRO_SIM_CYCLES`` environment variable) trades
accuracy for time; the defaults give each entry a few seconds.

``--workers N`` runs each command's simulations through the
:mod:`repro.exec` process pool, and ``--cache DIR`` serves repeated
scenarios from the content-addressed result cache -- both are
bit-identical to the serial uncached run (see ``docs/execution.md``).

``--metrics-out DIR`` wraps any command in an observation session (see
``docs/observability.md``): every simulation run writes a
``run-NNNN.manifest.json`` (config, seed, versions, timings, summary
statistics) and a ``run-NNNN.metrics.jsonl`` per-stage time series into
``DIR``, turning the invocation into a reproducible artifact.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

__all__ = ["main", "build_parser"]

_STAGE_TABLES = ("I", "II", "III", "IV", "V")
_TOTALS_TABLES = ("VII", "VIII", "IX", "X", "XI", "XII")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing and docs)."""
    # the execution options, each declared once: ``execution`` serves
    # every simulating command and ``serve``, ``dispatch`` serves
    # ``batch`` and ``serve``; _execution_context reads them all
    execution = argparse.ArgumentParser(add_help=False)
    execution.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes per simulation batch or service job "
        "(default 1: in-process)",
    )
    execution.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="content-addressed result cache directory (default: off; "
        "'batch', 'cache' and 'serve' default to .repro-cache)",
    )
    dispatch = argparse.ArgumentParser(add_help=False)
    dispatch.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts per failed task (default 1)",
    )
    dispatch.add_argument(
        "--timeout", type=float, default=None,
        help="per-task seconds a started pool job may run before it counts "
        "as failed",
    )

    common = argparse.ArgumentParser(add_help=False, parents=[execution])
    common.add_argument(
        "--cycles", type=int, default=None, help="simulation cycles per run"
    )
    common.add_argument("--seed", type=int, default=None, help="override master seed")
    common.add_argument(
        "--metrics-out",
        metavar="DIR",
        default=None,
        help="write run manifests + per-stage metrics JSONL into DIR",
    )
    common.add_argument(
        "--metrics-stride",
        type=int,
        default=16,
        help="cycles between metrics samples (with --metrics-out; default 16)",
    )
    common.add_argument(
        "--vectorize-replicas",
        action="store_true",
        help="run the seeds of each scenario in one stacked engine (a "
        "stack never mixes scenarios); every result and cache entry "
        "equals the serial one; composes with --workers (metrics are off "
        "for stacked runs)",
    )
    common.add_argument(
        "--target-ci",
        type=float,
        default=None,
        dest="target_ci",
        help="adaptive replication: grow replications per scenario until "
        "the 95%% t-interval half-width is at most this value, instead of "
        "a fixed count (see docs/scaling.md)",
    )
    common.add_argument(
        "--sanitize",
        action="store_true",
        help="arm the runtime sanitizer: invariant checks (finite "
        "statistics, non-negative queue depths, message conservation, "
        "shard-merge consistency) at every window end of the "
        "stage-wise pass of serial, stacked and streamed runs, raising "
        "SanitizerError with cycle/stage/replica coordinates; "
        "equivalent to REPRO_SANITIZE=1 (see docs/simulator.md)",
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce tables/figures from Kruskal-Snir-Weiss 1988.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", parents=[common], help="regenerate one table (I..XII)")
    t.add_argument("id", choices=(*_STAGE_TABLES, "VI", *_TOTALS_TABLES))

    f = sub.add_parser("figure", parents=[common], help="regenerate one figure panel (3..8)")
    f.add_argument("id", type=int, choices=[3, 4, 5, 6, 7, 8])
    f.add_argument("--stages", type=int, default=6, help="network depth (3/6/9/12)")

    sub.add_parser(
        "calibrate", parents=[common],
        help="re-derive Section IV constants from simulation",
    )
    sub.add_parser("all", parents=[common], help="every table and figure (slow)")
    sub.add_parser(
        "report", parents=[common],
        help="emit the EXPERIMENTS.md paper-vs-measured report (slow)",
    )

    s = sub.add_parser(
        "sweep", parents=[common],
        help="parameter sweep with confidence intervals",
    )
    s.add_argument("kind", choices=["load", "switch", "message"])

    sub.add_parser(
        "validate", parents=[common],
        help="fast end-to-end self-validation (~1 min)",
    )

    b = sub.add_parser(
        "batch", parents=[common, dispatch],
        help="run a scenario batch through the parallel cached runner",
    )
    b.add_argument(
        "--scenarios",
        default="smoke",
        help="named scenario set (smoke) or path to a JSON spec file",
    )
    b.add_argument(
        "--no-cache", action="store_true", help="run without the result cache"
    )
    b.add_argument(
        "--require-cached", action="store_true",
        help="exit non-zero unless every task is served from cache",
    )
    b.add_argument(
        "--db",
        metavar="PATH",
        default=None,
        help="record every outcome in the experiment ledger at PATH "
        "(see 'python -m repro db' and docs/experiments-db.md)",
    )

    c = sub.add_parser(
        "cache", parents=[common], help="result-cache maintenance"
    )
    c.add_argument("action", choices=["stats", "clear"])

    lint = sub.add_parser(
        "lint",
        help="check the repro invariants (determinism, digest hygiene, "
        "failure hygiene) with the built-in AST linter",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files/directories to check (default: the installed repro package)",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="report format (default text; 'sarif' emits SARIF 2.1.0 "
        "for CI annotation tooling)",
    )
    lint.add_argument(
        "--list-waivers",
        action="store_true",
        dest="list_waivers",
        help="print the inventory of '# repro: lint-ok' waivers (path, "
        "line, codes, expiry, reason) instead of linting",
    )
    lint.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="RULES",
        help="only run these rule codes (repeatable / comma-separated)",
    )
    lint.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="RULES",
        help="skip these rule codes (repeatable / comma-separated)",
    )

    db = sub.add_parser(
        "db",
        help="experiment ledger: ingest runs/benchmarks, evaluate the "
        "paper's reproduction targets, render reports (docs/experiments-db.md)",
    )
    db.add_argument(
        "--path",
        metavar="PATH",
        default=None,
        help="ledger file (default: experiments.sqlite)",
    )
    dbsub = db.add_subparsers(dest="db_command", required=True)

    di = dbsub.add_parser(
        "ingest", help="ingest observation-session manifests and BENCH artifacts"
    )
    di.add_argument(
        "--manifests",
        action="append",
        default=[],
        metavar="DIR",
        help="observation-session directory of run manifests (repeatable)",
    )
    di.add_argument(
        "--bench",
        action="append",
        default=[],
        metavar="FILE",
        help="BENCH_*.json perf artifact (repeatable)",
    )

    dq = dbsub.add_parser("query", help="list recorded runs")
    dq.add_argument("--digest", default=None, help="exact spec digest")
    dq.add_argument("--label", default=None, help="exact scenario label")
    dq.add_argument(
        "--status", default=None, choices=["completed", "cached", "failed"]
    )
    dq.add_argument(
        "--engine", default=None,
        help="digest family: serial (older ledgers also hold rows of "
        "three retired batch families)",
    )
    dq.add_argument(
        "--limit", type=int, default=20, help="max rows (default 20; 0 = all)"
    )

    de = dbsub.add_parser(
        "expectations",
        help="evaluate the paper's machine-checkable targets against the "
        "ledger; exits non-zero if a previously-met target regressed",
    )
    de.add_argument(
        "--report", metavar="FILE", default=None,
        help="also write the markdown scorecard to FILE",
    )
    de.add_argument(
        "--strict", action="store_true",
        help="also exit non-zero on any outright 'failure' classification",
    )

    dp = dbsub.add_parser(
        "perf", help="render the perf-trajectory report from ingested benchmarks"
    )
    dp.add_argument(
        "--report", metavar="FILE", default=None,
        help="also write the markdown report to FILE",
    )
    dp.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit non-zero if any series' latest speedup is below its floor",
    )

    dx = dbsub.add_parser(
        "export", help="dump the whole ledger as deterministic canonical JSON"
    )
    dx.add_argument(
        "--out", metavar="FILE", default=None,
        help="write to FILE instead of stdout",
    )

    serve = sub.add_parser(
        "serve",
        parents=[execution, dispatch],
        help="run the HTTP simulation service (docs/api-service.md)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8765,
        help="bind port (0 picks an ephemeral port; default 8765)",
    )
    serve.add_argument(
        "--port-file",
        metavar="FILE",
        default=None,
        help="write the bound port number to FILE once listening "
        "(for scripts using --port 0)",
    )
    serve.add_argument(
        "--executors", type=int, default=2,
        help="jobs that may run concurrently (default 2)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64,
        help="pending-job bound; overflowing submissions get HTTP 429 (default 64)",
    )
    serve.add_argument(
        "--no-cache", action="store_true", help="serve without the result cache"
    )
    serve.add_argument(
        "--db",
        metavar="PATH",
        default=None,
        help="record every finished run in the experiment ledger at PATH",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress per-request access logging"
    )

    submit = sub.add_parser(
        "submit",
        help="submit scenarios to a running service and report the runs",
    )
    submit.add_argument(
        "--url", default="http://127.0.0.1:8765",
        help="service base URL (default http://127.0.0.1:8765)",
    )
    submit.add_argument(
        "--scenarios", default="smoke",
        help="named scenario set or path to a JSON spec file (default smoke)",
    )
    submit.add_argument(
        "--label", default=None,
        help="submit only the scenario entry with this label",
    )
    submit.add_argument(
        "--cycles", type=int, default=None,
        help="override every submitted spec's cycle budget",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until every submitted run reaches a terminal state",
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0,
        help="seconds to wait per run with --wait (default 300)",
    )
    submit.add_argument(
        "--require-cached", action="store_true",
        help="exit non-zero unless every response reports cached: true",
    )
    submit.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the raw JSON documents instead of the table",
    )

    m = sub.add_parser(
        "metrics", parents=[common],
        help="one instrumented run: per-stage metrics + phase timings",
    )
    m.add_argument("--k", type=int, default=2, help="switch degree (default 2)")
    m.add_argument("--stages", type=int, default=6, help="network depth (default 6)")
    m.add_argument("--p", type=float, default=0.5, help="arrival probability")
    m.add_argument("--m", type=int, default=1, help="message size (packets)")
    m.add_argument(
        "--width", type=int, default=None,
        help="ports per stage (enables width-decoupled random routing)",
    )
    m.add_argument(
        "--buffer", type=int, default=None, help="finite buffer capacity (drops)"
    )
    return parser


def _sim_kwargs(cycles: Optional[int], seed: Optional[int]) -> dict:
    """Overrides for the analysis generators.

    ``is not None`` (not truthiness), so an explicit ``--cycles 0`` is
    passed through to be rejected loudly instead of silently ignored.
    """
    kwargs = {}
    if cycles is not None:
        kwargs["n_cycles"] = cycles
    if seed is not None:
        kwargs["seed"] = seed
    return kwargs


def _run_table(table_id: str, cycles: Optional[int], seed: Optional[int]) -> str:
    from repro.analysis import tables

    kwargs = _sim_kwargs(cycles, seed)
    if table_id in _STAGE_TABLES:
        fn = {
            "I": tables.table_I,
            "II": tables.table_II,
            "III": tables.table_III,
            "IV": tables.table_IV,
            "V": tables.table_V,
        }[table_id]
        return fn(**kwargs).to_text()
    if table_id == "VI":
        return tables.table_VI(**kwargs).to_text()
    return tables.table_totals(table_id, **kwargs).to_text()


def _run_figure(figure_id: int, stages: int, cycles: Optional[int], seed: Optional[int]) -> str:
    from repro.analysis.figures import figure_waiting_histogram
    from repro.analysis.report import render_figure

    kwargs = _sim_kwargs(cycles, seed)
    return render_figure(figure_waiting_histogram(figure_id, stages, **kwargs))


def _run_calibrate(cycles: Optional[int]) -> str:
    from repro.core.calibration import calibrated_constants
    from repro.core.later_stages import PAPER_CONSTANTS

    n_cycles = cycles if cycles is not None else 40_000
    fresh = calibrated_constants(n_cycles=n_cycles, include_nonuniform=True)
    lines = ["recalibrated Section IV constants (k=2) vs shipped defaults:"]
    for name in (
        "mean_slope",
        "var_linear",
        "var_quadratic",
        "var_m_linear",
        "var_m_quadratic",
        "nonuniform_mean_slope",
        "nonuniform_var_slope",
    ):
        lines.append(
            f"  {name:22} calibrated={float(getattr(fresh, name)):8.4f} "
            f"default={float(getattr(PAPER_CONSTANTS, name)):8.4f}"
        )
    return "\n".join(lines)


def _run_sweep(kind: str, cycles: Optional[int], seed: Optional[int]) -> str:
    from repro.analysis.sweeps import load_sweep, message_size_sweep, switch_size_sweep

    kwargs = _sim_kwargs(cycles, seed)
    fn = {"load": load_sweep, "switch": switch_size_sweep, "message": message_size_sweep}[kind]
    rows = fn(**kwargs)
    lines = [
        f"{kind} sweep (simulated vs predicted; +/- is a 95% batch-means CI)",
        f"{'point':>10} {'w1 sim':>16} {'w1 exact':>9} {'w_deep sim':>11} "
        f"{'w_inf pred':>10} {'total':>16}",
    ]
    for r in rows:
        lines.append(
            f"{r.label:>10} {r.first_stage_mean:8.4f}+/-{r.first_stage_ci:6.4f} "
            f"{r.predicted_first_mean:9.4f} {r.deep_stage_mean:11.4f} "
            f"{r.predicted_limit_mean:10.4f} {r.total_mean:8.3f}+/-{r.total_ci:6.4f}"
        )
    return "\n".join(lines)


def _run_batch(args) -> int:
    from repro.exec import DEFAULT_CACHE_DIR, ResultCache, load_scenarios, run_batch

    specs = load_scenarios(args.scenarios, n_cycles=args.cycles)
    cache = None if args.no_cache else ResultCache(args.cache or DEFAULT_CACHE_DIR)
    db = None
    if args.db is not None:
        from repro.expdb import ExperimentDB

        db = ExperimentDB(args.db)

    def progress(event) -> None:
        note = f"  [{event['event']:>9}] {event['label'] or event['digest']}"
        if event.get("error"):
            note += f"  ({event['error']})"
        print(note, file=sys.stderr)

    # workers, retries, timeout and vectorize come from the execution
    # context main installs
    batch = run_batch(specs, cache=cache, progress=progress, db=db)
    lines = [
        f"batch of {batch.n_tasks} scenarios (workers={batch.workers}, "
        f"cache={'off' if cache is None else cache.root})",
        f"{'label':>18} {'status':>10} {'attempts':>8} {'digest':>14} {'w1 mean':>9}",
    ]
    for o in batch.outcomes:
        w1 = f"{float(o.result.stage_means[0]):9.4f}" if o.result is not None else "        -"
        lines.append(
            f"{o.spec.label:>18} {o.status:>10} {o.attempts:8d} "
            f"{o.spec.digest[:12]:>14} {w1}"
        )
    summary = batch.summary()
    status_note = ", ".join(
        f"{count} {status}" for status, count in summary["statuses"].items()
    )
    lines.append(
        f"batch: {batch.n_tasks} tasks -- {batch.n_simulated} simulated, "
        f"{batch.n_cached} cached, {batch.n_failed} failed "
        f"in {batch.elapsed_seconds:.1f}s"
    )
    lines.append(
        f"batch summary: {summary['n_tasks']} tasks ({status_note}) -- "
        f"{summary['total_attempts']} attempt(s), "
        f"{summary['cache_hits']} cache hit(s) / "
        f"{summary['cache_misses']} miss(es), "
        f"workers={summary['workers']}, {summary['elapsed_seconds']:.1f}s"
    )
    for o in batch.failures():
        lines.append(f"FAILED {o.spec.label or o.index}: "
                     f"{(o.error or '').strip().splitlines()[-1]}")
    if cache is not None:
        lines.append(cache.stats().to_text())
    if db is not None:
        counts = db.counts()
        lines.append(
            f"ledger {db.path}: {counts['runs']} run(s), "
            f"{counts['benchmarks']} benchmark point(s), "
            f"{counts['expectation_evals']} evaluation(s)"
        )
    print("\n".join(lines))
    if batch.n_failed:
        return 1
    if args.require_cached and batch.n_simulated:
        print(
            f"--require-cached: {batch.n_simulated} task(s) had to be simulated",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_cache(args) -> int:
    from repro.exec import DEFAULT_CACHE_DIR, ResultCache

    cache = ResultCache(args.cache or DEFAULT_CACHE_DIR)
    if args.action == "stats":
        print(cache.stats().to_text())
    else:
        removed = cache.clear()
        print(f"cleared {removed} cache entrie(s) from {cache.root}")
    return 0


def _run_lint(args) -> int:
    from pathlib import Path

    import repro
    from repro.errors import LintError
    from repro.lint import (
        PARSE_ERROR_CODE,
        RULE_CODES,
        UNUSED_SUPPRESSION_CODE,
        LintConfig,
        collect_waivers,
        lint_paths,
        render_json,
        render_sarif,
        render_text,
    )

    paths = args.paths or [Path(repro.__file__).parent]
    if getattr(args, "list_waivers", False):
        try:
            waivers = collect_waivers(paths)
        except LintError as exc:
            print(f"lint: {exc}", file=sys.stderr)
            return 2
        for path, sup in waivers:
            expiry = f" until={sup.until.isoformat()}" if sup.until else ""
            reason = sup.reason or "(no reason: inert)"
            print(f"{path}:{sup.line}: {', '.join(sup.codes)}{expiry} -- {reason}")
        print(f"{len(waivers)} waiver(s)")
        return 0
    known = (*RULE_CODES, PARSE_ERROR_CODE, UNUSED_SUPPRESSION_CODE)
    try:
        config = LintConfig.from_options(
            select=args.select, ignore=args.ignore, known=known
        )
        result = lint_paths(paths, config)
    except LintError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    render = {"json": render_json, "sarif": render_sarif}.get(args.format, render_text)
    print(render(result))
    return 0 if result.ok else 1


def _run_db(args) -> int:
    """The ``db`` subcommand family (see ``docs/experiments-db.md``)."""
    import json as json_mod

    from repro.expdb import (
        DEFAULT_DB_PATH,
        ExperimentDB,
        evaluate_expectations,
        find_regressions,
        ingest_bench_file,
        ingest_session_dir,
        perf_regressions,
        record_evaluations,
        render_expectations_markdown,
        render_perf_markdown,
        scorecard_counts,
    )

    db = ExperimentDB(args.path or DEFAULT_DB_PATH)

    if args.db_command == "ingest":
        if not args.manifests and not args.bench:
            print("db ingest: nothing to do (--manifests/--bench)", file=sys.stderr)
            return 2
        now = time.time()  # the CLI is a sanctioned timing layer
        total_ingested = total_skipped = 0
        for directory in args.manifests:
            ingested, skipped = ingest_session_dir(db, directory)
            total_ingested += ingested
            total_skipped += skipped
            print(f"{directory}: {ingested} manifest(s) ingested, {skipped} skipped")
        for bench_path in args.bench:
            names = ingest_bench_file(db, bench_path, created_unix=now)
            total_ingested += len(names)
            print(f"{bench_path}: {len(names)} benchmark point(s) "
                  f"-> series {sorted(set(names))}")
        counts = db.counts()
        print(
            f"ledger {db.path}: {counts['runs']} run(s), "
            f"{counts['benchmarks']} benchmark point(s)"
        )
        return 0 if total_ingested or not total_skipped else 1

    if args.db_command == "query":
        rows = db.runs(
            digest=args.digest,
            label=args.label,
            status=args.status,
            engine=args.engine,
            limit=args.limit or None,
        )
        counts = db.counts()
        print(
            f"ledger {db.path}: {counts['runs']} run(s), "
            f"{counts['benchmarks']} benchmark point(s), "
            f"{counts['expectation_evals']} evaluation(s)"
        )
        if rows:
            print(f"{'digest':>14} {'label':>18} {'status':>10} "
                  f"{'engine':>17} {'cycles':>8} {'w1 mean':>9}")
            for row in rows:
                means = json_mod.loads(row["stage_means"]) if row["stage_means"] else None
                w1 = f"{means[0]:9.4f}" if means else "        -"
                print(
                    f"{row['digest'][:12]:>14} {row['label']:>18} "
                    f"{row['status']:>10} {row['engine']:>17} "
                    f"{row['n_cycles']:8d} {w1}"
                )
        return 0

    if args.db_command == "expectations":
        results = evaluate_expectations(db)
        regressions = find_regressions(db, results)
        record_evaluations(db, results, created_unix=time.time())
        report = render_expectations_markdown(results, regressions)
        if args.report:
            from pathlib import Path

            Path(args.report).write_text(report)
            print(f"[scorecard -> {args.report}]", file=sys.stderr)
        print(report, end="")
        counts = scorecard_counts(results)
        if regressions:
            names = ", ".join(r.expectation.id for r in regressions)
            print(f"REGRESSION: previously-met target(s) no longer hold: {names}",
                  file=sys.stderr)
            return 1
        if args.strict and counts["failure"]:
            print(f"--strict: {counts['failure']} target(s) classified as failure",
                  file=sys.stderr)
            return 1
        return 0

    if args.db_command == "perf":
        report = render_perf_markdown(db)
        if args.report:
            from pathlib import Path

            Path(args.report).write_text(report)
            print(f"[perf trajectory -> {args.report}]", file=sys.stderr)
        print(report, end="")
        problems = perf_regressions(db)
        if problems and args.fail_on_regression:
            for problem in problems:
                print(f"PERF REGRESSION: {problem}", file=sys.stderr)
            return 1
        return 0

    # export
    dump = db.export()
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(dump + "\n")
        print(f"[ledger export -> {args.out}]", file=sys.stderr)
    else:
        print(dump)
    return 0


def _run_serve(args) -> int:
    """The ``serve`` command: run the HTTP service until interrupted."""
    from pathlib import Path

    from repro.api import JobManager, make_server, serve_forever
    from repro.exec import DEFAULT_CACHE_DIR, ResultCache

    db = None
    if args.db is not None:
        from repro.expdb import ExperimentDB

        db = ExperimentDB(args.db)
    ctx = _execution_context(args)
    manager = JobManager(
        executors=args.executors,
        workers=ctx.workers,
        retries=ctx.retries,
        timeout=ctx.timeout,
        max_queue=args.max_queue,
        cache=None if args.no_cache else ResultCache(args.cache or DEFAULT_CACHE_DIR),
        use_cache=not args.no_cache,
        db=db,
    )
    server = make_server(args.host, args.port, manager=manager, quiet=args.quiet)
    print(f"listening on http://{args.host}:{server.port}", flush=True)
    if args.port_file:
        Path(args.port_file).write_text(f"{server.port}\n")
    serve_forever(server)
    return 0


def _run_submit(args) -> int:
    """The ``submit`` command: drive a running service over HTTP."""
    import json as json_mod
    from pathlib import Path

    from repro.api import ApiClient
    from repro.errors import ApiError

    client = ApiClient(args.url, timeout=args.timeout)
    source = args.scenarios
    payloads = []
    if source.endswith(".json") or Path(source).is_file():
        from repro.exec import specs_from_file

        for spec in specs_from_file(source):
            doc = {"spec": spec.to_jsonable()}
            if args.cycles is not None:
                doc["n_cycles"] = args.cycles
            payloads.append(doc)
    else:
        doc = {"scenario": source}
        if args.label is not None:
            doc["label"] = args.label
        if args.cycles is not None:
            doc["n_cycles"] = args.cycles
        payloads.append(doc)

    runs = []
    try:
        for payload in payloads:
            response = client.submit(payload)
            if args.as_json:
                print(json_mod.dumps(response, indent=2))
            runs.extend(response["runs"])
        finals = {}
        if args.wait:
            for run in runs:
                finals[run["digest"]] = client.wait(
                    run["digest"], timeout=args.timeout
                )
                if args.as_json:
                    print(json_mod.dumps(finals[run["digest"]], indent=2))
    except ApiError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1

    if not args.as_json:
        print(f"{'label':>18} {'digest':>14} {'cached':>7} {'status':>10}")
        for run in runs:
            status = finals.get(run["digest"], run).get("status", run["status"])
            print(
                f"{run['label']:>18} {run['digest'][:12]:>14} "
                f"{str(run['cached']).lower():>7} {status:>10}"
            )
    failed = [
        digest for digest, doc in finals.items() if doc.get("status") == "failed"
    ]
    if failed:
        print(f"submit: {len(failed)} run(s) failed", file=sys.stderr)
        return 1
    if args.require_cached:
        fresh = [run for run in runs if not run["cached"]]
        if fresh:
            print(
                f"--require-cached: {len(fresh)} run(s) were not served "
                "from cache or an existing job",
                file=sys.stderr,
            )
            return 1
    return 0


def _run_metrics(args) -> str:
    from repro.analysis.report import render_metrics_summary
    from repro.obs.metrics import MetricsCollector
    from repro.simulation.network import NetworkConfig, NetworkSimulator

    config = NetworkConfig(
        k=args.k,
        n_stages=args.stages,
        p=args.p,
        message_size=args.m,
        topology="random" if args.width is not None else "omega",
        width=args.width,
        buffer_capacity=args.buffer,
        seed=args.seed if args.seed is not None else 1,
    )
    sim = NetworkSimulator(config)
    if sim.metrics is None:  # no --metrics-out session installed one
        sim.attach_metrics(MetricsCollector(stride=args.metrics_stride))
    sim.engine.enable_profiling()
    n_cycles = args.cycles if args.cycles is not None else 20_000
    result = sim.run(n_cycles)
    return render_metrics_summary(result, sim.metrics)


def _execution_context(args):
    """The :class:`~repro.exec.ExecutionContext` the execution options ask for.

    ``batch``, ``cache`` and ``serve`` open their own result cache, so
    their context carries none.
    """
    from repro.exec import ExecutionContext, ResultCache

    cache_dir = args.cache if args.command not in ("batch", "cache", "serve") else None
    return ExecutionContext(
        workers=args.workers,
        cache=ResultCache(cache_dir) if cache_dir else None,
        retries=getattr(args, "retries", 1),
        timeout=getattr(args, "timeout", None),
        vectorize=getattr(args, "vectorize_replicas", False),
        target_ci=getattr(args, "target_ci", None),
        sanitize=getattr(args, "sanitize", False),
    )


def _dispatch(args) -> int:
    if args.command == "table":
        print(_run_table(args.id, args.cycles, args.seed))
    elif args.command == "figure":
        print(_run_figure(args.id, args.stages, args.cycles, args.seed))
    elif args.command == "calibrate":
        print(_run_calibrate(args.cycles))
    elif args.command == "report":
        from repro.analysis.experiments_report import generate_experiments_markdown

        print(generate_experiments_markdown(n_cycles=args.cycles, seed=args.seed))
    elif args.command == "sweep":
        print(_run_sweep(args.kind, args.cycles, args.seed))
    elif args.command == "batch":
        return _run_batch(args)
    elif args.command == "cache":
        return _run_cache(args)
    elif args.command == "metrics":
        print(_run_metrics(args))
    elif args.command == "validate":
        from repro.analysis.validate import render_validation, run_validation

        checks = run_validation(
            n_cycles=args.cycles if args.cycles is not None else 8_000
        )
        print(render_validation(checks))
        if any(not c.passed for c in checks):
            return 1
    elif args.command == "all":
        from repro.analysis.figures import FIGURE_CONFIGS

        for table_id in (*_STAGE_TABLES, "VI", *_TOTALS_TABLES):
            print(_run_table(table_id, args.cycles, args.seed))
            print()
        for figure_id in sorted(FIGURE_CONFIGS):
            for stages in (3, 6, 9, 12):
                print(_run_figure(figure_id, stages, args.cycles, args.seed))
                print()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "lint":
        # lint is pure static analysis: no simulation context, no
        # metrics session, no timing chatter polluting JSON output
        return _run_lint(args)
    if args.command == "db":
        # ledger maintenance never simulates: no execution context, no
        # metrics session, and exports stay free of timing chatter
        return _run_db(args)
    if args.command == "serve":
        # the service wires its own JobManager; the process-global
        # execution context and metrics session stay out of its way
        return _run_serve(args)
    if args.command == "submit":
        # pure HTTP client: nothing simulates in this process
        return _run_submit(args)
    started = time.time()

    def dispatch_in_context() -> int:
        from repro.exec import use_execution

        with use_execution(_execution_context(args)):
            return _dispatch(args)

    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out is not None:
        from repro.obs.session import session

        with session(metrics_out, stride=args.metrics_stride) as sess:
            code = dispatch_in_context()
        print(
            f"[{len(sess.manifests)} run manifest(s) -> {metrics_out}]",
            file=sys.stderr,
        )
    else:
        code = dispatch_in_context()
    print(f"[{time.time() - started:.1f}s]", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
