"""Compare two sets of benchmark result files, metric by metric.

    python3 bench/compare.py A B

``A`` (the parent) and ``B`` (the change) are each a result file written by
``run.py --out`` or a directory searched recursively for them.  Runs are
grouped by workload and by traced/untraced; within a group the i-th run
of A is paired with the i-th run of B in seed order, as the measuring
protocol alternates them.  For every metric the report gives each side's
median and quartiles, B's wins over the pairs (ties count for neither),
the ratio of the medians with its base, and, for the end-to-end metrics of
``BENCHMARK.json``, a verdict:

* improved   -- B wins at least 9 of 10 pairs and the medians differ by
  more than A's interquartile range;
* unresolved -- a side's interquartile range, as a share of its median, is
  wider than the metric's bound (unless every run of B beats every run
  of A);
* unchanged  -- B's median is no worse than A's by more than the bound;
* worse      -- otherwise.

Exits 1 when any end-to-end metric is worse or unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def load_results(path: str) -> List[dict]:
    p = Path(path)
    files = sorted(p.rglob("*.json")) if p.is_dir() else [p]
    docs = [json.loads(f.read_text()) for f in files]
    return [d for d in docs if str(d.get("schema", "")).startswith("repro-bench/")]


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    if wins >= 0.9 * len(pairs) and sign * (am - bm) > (a3 - a1):
        return "improved"
    spread = max((a3 - a1) / abs(am) if am else 0.0, (b3 - b1) / abs(bm) if bm else 0.0)
    b_always_better = all(sign * (x - y) > 0 for x in a for y in b)
    if spread > bound and not b_always_better:
        return "unresolved"
    worse_by = sign * (bm - am) / abs(am) if am else 0.0
    return "unchanged" if worse_by <= bound else "worse"


def _metric_table(docs: List[dict]) -> Dict[str, tuple]:
    """name -> (unit, values in seed order) over every metric the runs share."""
    docs = sorted(docs, key=lambda d: d["seed"])
    table: Dict[str, tuple] = {}
    for doc in docs:
        for name, m in {**doc["metrics"], **doc.get("extras", {})}.items():
            table.setdefault(name, (m["unit"], []))[1].append(float(m["value"]))
    return {n: v for n, v in table.items() if len(v[1]) == len(docs)}


def compare(a_docs: List[dict], b_docs: List[dict], spec: dict) -> int:
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    bounded = {m["name"] for m in spec["end_to_end"]}
    groups = sorted({(d["workload"], d["trace"]) for d in a_docs + b_docs})
    status = 0
    for workload, trace in groups:
        a = [d for d in a_docs if (d["workload"], d["trace"]) == (workload, trace)]
        b = [d for d in b_docs if (d["workload"], d["trace"]) == (workload, trace)]
        print(f"\n{workload}  trace {trace}  A: {len(a)} runs  B: {len(b)} runs")
        if not a or not b:
            print("  (one side has no runs)")
            continue
        a_table, b_table = _metric_table(a), _metric_table(b)
        for name in a_table:
            if name not in b_table:
                continue
            unit, av = a_table[name]
            _, bv = b_table[name]
            info: Optional[dict] = declared.get(name)
            better = info["better"] if info else ("lower" if unit in ("ms", "s") else None)
            a1, am, a3 = quartiles(av)
            b1, bm, b3 = quartiles(bv)
            n = min(len(av), len(bv))
            wins = "  -  "
            if better is not None:
                sign = 1.0 if better == "lower" else -1.0
                k = sum(1 for x, y in zip(av[:n], bv[:n]) if sign * (x - y) > 0)
                wins = f"{k:2d}/{n:<2d}"
            ratio = f"B/A {bm / am:6.3f} of A {am:.6g} {unit}" if am else f"A median 0 {unit}"
            if name in bounded:
                v = verdict(av[:n], bv[:n], better, info["bound"])
                if v in ("worse", "unresolved"):
                    status = 1
            else:
                v = "-"
            print(f"  {name:24} A {am:11.5g} [{a1:.5g}, {a3:.5g}]  "
                  f"B {bm:11.5g} [{b1:.5g}, {b3:.5g}]  wins {wins}  {ratio}  {v}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="parent results: a result file or a directory")
    parser.add_argument("b", help="change results: a result file or a directory")
    parser.add_argument("--spec", default=str(ROOT / "BENCHMARK.json"),
                        help="benchmark definition with the bounds (default: BENCHMARK.json)")
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())
    return compare(load_results(args.a), load_results(args.b), spec)


if __name__ == "__main__":
    sys.exit(main())
