"""Config-free report generation straight from the experiment ledger.

Two documents, both plain markdown rendered from DB rows alone (no
simulation, no re-computation -- what the ledger recorded is what the
report shows):

* :func:`render_expectations_markdown` -- the reproduction scorecard:
  every paper target of :data:`~repro.expdb.expectations.PAPER_EXPECTATIONS`
  with its expected value, the measured value from the matched run,
  the relative error, and the success/partial/failure classification,
  in the style of the hand-maintained ``EXPERIMENTS.md``.
* :func:`render_perf_markdown` -- the perf trajectory: each benchmark
  series (``replicas``, ``sweep``, ``exec``, ...) as an ingestion-
  ordered table of measurements with regression flags.
  :func:`perf_regressions` applies the documented speedup floors (the
  same numbers ``benchmarks/test_perf_*.py`` asserts) so CI can fail
  on a series that sank below its claim.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.expdb.db import ExperimentDB
from repro.expdb.expectations import EXPECTATIONS_VERSION, ExpectationResult

__all__ = [
    "PERF_SPEEDUP_FLOORS",
    "render_expectations_markdown",
    "render_perf_markdown",
    "perf_regressions",
    "scorecard_counts",
]

#: Minimum acceptable speedup per benchmark series -- the same floors
#: the perf benchmarks assert (``test_perf_replicas``: >= 5x,
#: ``test_perf_exec``: >= 2x, ``test_perf_scale``: sharded multi-worker
#: >= 2x over a single-shard serial run).  A series whose *latest*
#: point sits below its floor is a perf regression; a series with no
#: floor (the older points of a retired benchmark) is reported without
#: a verdict.
PERF_SPEEDUP_FLOORS: Dict[str, float] = {
    "replicas": 5.0,
    "exec": 2.0,
    "scale": 2.0,
}


def scorecard_counts(results: Sequence[ExpectationResult]) -> Dict[str, int]:
    """``{classification: count}`` over one evaluation (zeroes included)."""
    counts = {"success": 0, "partial": 0, "failure": 0, "missing": 0}
    for result in results:
        counts[result.classification] = counts.get(result.classification, 0) + 1
    return counts


def _fmt(value: Optional[float], places: int = 4) -> str:
    return "-" if value is None else f"{value:.{places}f}"


def render_expectations_markdown(
    results: Sequence[ExpectationResult],
    regressions: Sequence[ExpectationResult] = (),
) -> str:
    """The paper-vs-measured scorecard as a markdown document."""
    counts = scorecard_counts(results)
    regressed_ids = {r.expectation.id for r in regressions}
    lines: List[str] = [
        "# Reproduction scorecard",
        "",
        f"Expectations v{EXPECTATIONS_VERSION}: "
        f"{counts['success']} success, {counts['partial']} partial, "
        f"{counts['failure']} failure, {counts['missing']} missing "
        f"(of {len(results)} targets).",
        "",
        "| expectation | source | expected | measured | rel. err | tol | class |",
        "|---|---|---|---|---|---|---|",
    ]
    for result in results:
        e = result.expectation
        rel = (
            None
            if result.error is None or e.expected == 0
            else result.error / abs(e.expected)
        )
        flag = " **(regressed)**" if e.id in regressed_ids else ""
        lines.append(
            f"| {e.id} | {e.source} | {e.expected:.4f} | "
            f"{_fmt(result.measured)} | {_fmt(rel, 3)} | "
            f"{e.tolerance():.4f} | {result.classification}{flag} |"
        )
    lines.append("")
    missing = [r for r in results if r.classification == "missing"]
    if missing:
        lines.append(
            "Missing targets await full-scale runs in the ledger "
            "(`python -m repro table I --metrics-out DIR` then "
            "`python -m repro db ingest --manifests DIR`): "
            + ", ".join(r.expectation.id for r in missing)
            + "."
        )
        lines.append("")
    lines.append(
        "Classification: |measured - expected| within tol is success, "
        "within partial_factor x tol is partial, beyond is failure; "
        "see `docs/experiments-db.md`."
    )
    return "\n".join(lines) + "\n"


def _series_rows(points: Sequence[Mapping[str, Any]]) -> List[str]:
    lines = [
        "| # | speedup | baseline s | measured s | cycles | version | git | scenario |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for i, point in enumerate(points, start=1):
        git = str(point.get("git_revision") or "-")[:10]
        lines.append(
            "| {i} | {speedup} | {base} | {meas} | {cycles} | {ver} | {git} | {scen} |".format(
                i=i,
                speedup=_fmt(point.get("speedup"), 2),
                base=_fmt(point.get("baseline_seconds")),
                meas=_fmt(point.get("measured_seconds")),
                cycles=point.get("n_cycles") or "-",
                ver=point.get("repro_version") or "-",
                git=git,
                scen=point.get("scenario") or "-",
            )
        )
    return lines


def perf_regressions(db: ExperimentDB) -> List[str]:
    """Human-readable descriptions of series below their speedup floor."""
    problems: List[str] = []
    for name in db.bench_names():
        floor = PERF_SPEEDUP_FLOORS.get(name)
        points = db.bench_series(name)
        if floor is None or not points:
            continue
        latest = points[-1].get("speedup")
        if latest is not None and float(latest) < floor:
            problems.append(
                f"benchmark series {name!r}: latest speedup "
                f"{float(latest):.2f}x below the {floor:.1f}x floor"
            )
    return problems


def render_perf_markdown(db: ExperimentDB) -> str:
    """The perf-trajectory report for every ingested benchmark series."""
    names = db.bench_names()
    lines: List[str] = ["# Performance trajectory", ""]
    if not names:
        lines.append(
            "No benchmark points ingested yet.  Run the perf benchmarks "
            "(`make bench`) and ingest their artifacts: "
            "`python -m repro db ingest --bench BENCH_replicas.json`."
        )
        return "\n".join(lines) + "\n"
    problems = set(perf_regressions(db))
    for name in names:
        points = db.bench_series(name)
        floor = PERF_SPEEDUP_FLOORS.get(name)
        speedups = [
            float(p["speedup"]) for p in points if p.get("speedup") is not None
        ]
        lines.append(f"## {name} ({len(points)} point(s))")
        lines.append("")
        if floor is not None:
            lines.append(f"Asserted floor: {floor:.1f}x speedup.")
        if speedups:
            latest, best = speedups[-1], max(speedups)
            status = "OK"
            if floor is not None and latest < floor:
                status = "REGRESSION (below floor)"
            elif latest < 0.75 * best:
                status = "warning: latest < 75% of best"
            lines.append(
                f"Latest {latest:.2f}x, best {best:.2f}x -- {status}."
            )
        lines.append("")
        lines.extend(_series_rows(points))
        lines.append("")
    if problems:
        lines.append("Regressions: " + "; ".join(sorted(problems)) + ".")
        lines.append("")
    return "\n".join(lines) + "\n"
