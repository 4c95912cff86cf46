"""Static invariant checking for the ``repro`` codebase.

The reproduction rests on contracts no runtime test can watch all the
time: bit-exact determinism (seeded replay, parallel == serial, R=1
batched == serial) and cache-digest completeness (what the kernels
read must enter a spec's digest).  This package machine-checks
those contracts -- plus a few failure-hygiene rules -- on every commit,
from the AST, with no third-party dependencies:

========  ===================  =====================================
code      name                 invariant
========  ===================  =====================================
RPR001    determinism          no global RNG anywhere; no wall-clock
                               imports in the pure kernels
RPR003    silent-failure       broad excepts must re-raise or report
RPR004    library-purity       print/sys.exit only in cli.py
RPR005    mutable-default      no mutable default arguments
RPR006    digest-completeness  every ExperimentSpec field the kernel
                               call graph reads enters identity()
                               (interprocedural dataflow over the
                               project index)
RPR007    rng-streams          kernel generators derive from
                               simulation/rng.py and feed one entry
                               point each
RPR008    numeric-safety       no naive float accumulation, aliased
                               in-place array ops, or NaN-promoting
                               comparisons in the kernels
========  ===================  =====================================

RPR001, RPR003-005 and RPR008 are per-file AST passes; RPR006/RPR007
are *project* rules running over a whole-project index
(:mod:`repro.lint.project`: symbol table + name-resolved call graph +
reachability closure).

Run it as ``python -m repro lint [paths]`` (see
``docs/static-analysis.md``), or programmatically::

    from repro.lint import lint_paths
    result = lint_paths(["src/repro"])
    assert result.ok, result.findings

Deliberate exceptions are waived inline with a *reasoned* comment,
optionally expiring::

    from time import perf_counter  # repro: lint-ok RPR001 -- profiling only
    hot_sum()  # repro: lint-ok RPR008 until=2026-12-31 -- tracked in issue 42

Suppressions without a reason, suppressions that no longer match any
finding, and suppressions past their ``until=`` date are themselves
findings (RPR009) -- waivers cannot go stale silently.  Files that
fail to parse or read are findings too (RPR000).
"""

from __future__ import annotations

from repro.lint.config import KERNEL_DIRS, LintConfig, PathScope
from repro.lint.engine import LintResult, collect_waivers, iter_python_files, lint_paths
from repro.lint.findings import PARSE_ERROR_CODE, Finding
from repro.lint.project import ProjectIndex, build_index
from repro.lint.reporters import (
    REPORT_SCHEMA_VERSION,
    render_json,
    render_sarif,
    render_text,
)
from repro.lint.rules import RULE_CODES, all_rules
from repro.lint.suppressions import UNUSED_SUPPRESSION_CODE

__all__ = [
    "KERNEL_DIRS",
    "PARSE_ERROR_CODE",
    "REPORT_SCHEMA_VERSION",
    "RULE_CODES",
    "UNUSED_SUPPRESSION_CODE",
    "Finding",
    "LintConfig",
    "LintResult",
    "PathScope",
    "ProjectIndex",
    "all_rules",
    "build_index",
    "collect_waivers",
    "iter_python_files",
    "lint_paths",
    "render_json",
    "render_sarif",
    "render_text",
]
