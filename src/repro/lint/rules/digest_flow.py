"""RPR006: digest completeness -- every ``ExperimentSpec`` field the
kernels read must enter the spec's ``identity()`` digest document.

The result cache (:mod:`repro.exec.cache`) is keyed by a SHA-256 over a
spec's identity document.  That document carries the whole config
(``config_to_jsonable`` walks every declared ``NetworkConfig`` field),
so no config field can fall out of the digest -- but a spec field can.
A kernel that reads a spec field which never enters ``identity()``
changes simulation output without changing the cache digest, which is
exactly the cache-poisoning failure the experiment DB exists to
prevent.

Using the project call graph (:class:`~repro.lint.project.ProjectIndex`)
the rule computes every function reachable from the three kernel entry
points -- ``ClockedEngine.run`` (serial), ``run_stacked`` (stacked) and
``stream_totals`` (sharded streaming) -- and, inside the kernel
directories, fails on every ``spec.<field>`` read of a declared
``ExperimentSpec`` field that ``identity()`` never reads off ``self``.
Display and reporting layers legitimately read non-identity metadata
(``spec.label``), so reads outside the kernel directories are fine.

The check runs only when the entry points and the ``ExperimentSpec``
class with its ``identity()`` method are in the linted set; partial
trees are silently fine.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence, Set, Tuple

from repro.lint.config import KERNEL_DIRS, PathScope
from repro.lint.findings import Finding
from repro.lint.rules.base import FileContext, ProjectRule, dotted_name
from repro.lint.project import ProjectIndex, build_index

__all__ = ["DigestFlowRule"]

#: Qualified names of the kernel entry points whose call-graph closure
#: defines "read by the simulation".
ENTRY_POINTS = ("ClockedEngine.run", "run_stacked", "stream_totals")


def _spec_anchor(
    files: Sequence[FileContext],
) -> Optional[Tuple[Set[str], Set[str]]]:
    """The declared ``ExperimentSpec`` fields and the ``self.<attr>``
    reads of its ``identity()`` method, if both are in the linted set."""
    for ctx in files:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.ClassDef) and node.name == "ExperimentSpec"):
                continue
            fields = {
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            }
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == "identity"
                ):
                    return fields, {
                        sub.attr
                        for sub in ast.walk(item)
                        if isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                    }
            return None  # no identity() anchor
    return None


class DigestFlowRule(ProjectRule):
    code = "RPR006"
    name = "digest-completeness"
    why = (
        "every ExperimentSpec field the kernel call graph reads must "
        "enter identity(), or reads change results without changing "
        "cache keys"
    )
    default_scope = PathScope()

    def check_project(
        self,
        files: Sequence[FileContext],
        index: "Optional[ProjectIndex]" = None,
    ) -> Iterator[Finding]:
        anchor = _spec_anchor(files)
        if anchor is None:
            return  # partial tree: no spec class or no identity() anchor
        spec_fields, identity_attrs = anchor
        if index is None:
            index = build_index(files)
        roots = [info for entry in ENTRY_POINTS for info in index.find(entry)]
        if not roots:
            return  # no kernel entry points in scope

        # One finding per (field, function) pair, deduplicated, in a
        # deterministic order independent of traversal.
        seen: Set[Tuple[str, str, str]] = set()
        findings: list[Tuple[str, FileContext, ast.Attribute, str]] = []
        for info in index.reachable(roots):
            if not any(part in KERNEL_DIRS for part in info.ctx.path.parts[:-1]):
                continue
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Attribute):
                    continue
                base = dotted_name(node.value)
                if base is None or base.rsplit(".", 1)[-1] != "spec":
                    continue
                attr = node.attr
                if attr not in spec_fields or attr in identity_attrs:
                    continue
                key = (attr, info.ctx.display_path, info.qualname)
                if key in seen:
                    continue
                seen.add(key)
                findings.append((attr, info.ctx, node, info.qualname))
        for attr, ctx, node, qualname in sorted(
            findings, key=lambda f: (f[0], f[1].display_path, f[3])
        ):
            yield ctx.finding(
                node,
                self.code,
                f"ExperimentSpec field {attr!r} is read by {qualname} "
                "(reachable from a kernel entry point) but never enters "
                "the identity() digest document: results would vary "
                "without varying the cache key",
            )
