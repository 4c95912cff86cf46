"""RPR002: digest hygiene -- the stacking field lists must partition
``NetworkConfig``.

The result cache (:mod:`repro.exec.cache`) is keyed by a SHA-256 over
a spec's identity document, and the scenario-stacking machinery
(:func:`repro.exec.spec.group_by_shape`) splits every
``NetworkConfig`` field into exactly one of three buckets:

* ``STACKABLE_CONFIG_FIELDS`` (``repro/exec/spec.py``) -- parameters a
  stacked batch lets vary per replica;
* ``STACK_SHAPE_FIELDS`` (``repro/simulation/batched.py``) -- fields
  that fix engine array shapes and must agree across a batch;
* ``seed`` -- handled separately by the seed-resolution pipeline.

A field added to ``NetworkConfig`` but missed by both lists would fall
through the grouping logic: semantically different scenarios could be
stacked together or, worse, share a cache digest and serve each
other's stale results.  This rule resolves all three definitions from
the AST -- no imports, so it also works on fixture trees -- and fails
the build the moment the partition breaks.

The check runs only when the linted file set contains all three
anchors (the ``NetworkConfig`` dataclass and both field-list
assignments); linting a subtree without them is silently fine.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.lint.config import PathScope
from repro.lint.findings import Finding
from repro.lint.rules.base import FileContext, ProjectRule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.project import ProjectIndex

__all__ = ["DigestPartitionRule"]

#: The config field the seed-resolution pipeline owns (neither
#: stackable nor shape-fixing).
SEED_FIELD = "seed"


def _find_class_fields(
    tree: ast.Module, class_name: str
) -> Optional[tuple[ast.ClassDef, list[str]]]:
    """A dataclass by name and its annotated field names, if defined."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            fields = [
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
            return node, fields
    return None


def _find_tuple_assignment(
    tree: ast.Module, name: str
) -> Optional[tuple[ast.AST, Optional[list[str]]]]:
    """A module-level ``NAME = (...)`` assignment and its string items.

    Returns ``(node, None)`` when the assignment exists but is not a
    literal tuple/list of strings -- that is itself a finding (the rule
    cannot vouch for a computed field list).
    """
    for node in ast.walk(tree):
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if not any(isinstance(t, ast.Name) and t.id == name for t in targets):
            continue
        if isinstance(value, (ast.Tuple, ast.List)) and all(
            isinstance(el, ast.Constant) and isinstance(el.value, str)
            for el in value.elts
        ):
            return node, [el.value for el in value.elts]
        return node, None
    return None


class DigestPartitionRule(ProjectRule):
    code = "RPR002"
    name = "digest-hygiene"
    why = (
        "STACKABLE_CONFIG_FIELDS + STACK_SHAPE_FIELDS + seed must "
        "exactly partition NetworkConfig, or new fields silently fall "
        "out of cache digests and batch grouping"
    )
    default_scope = PathScope()

    def check_project(
        self,
        files: Sequence[FileContext],
        index: "Optional[ProjectIndex]" = None,
    ) -> Iterator[Finding]:
        config_ctx: Optional[FileContext] = None
        config_fields: Optional[list[str]] = None
        stackable_ctx: Optional[FileContext] = None
        stackable_node: Optional[ast.AST] = None
        stackable: Optional[list[str]] = None
        shape_ctx: Optional[FileContext] = None
        shape_node: Optional[ast.AST] = None
        shape: Optional[list[str]] = None
        exec_ctx: Optional[FileContext] = None
        exec_node: Optional[ast.ClassDef] = None
        exec_fields: Optional[list[str]] = None
        for ctx in files:
            if config_fields is None:
                found = _find_class_fields(ctx.tree, "NetworkConfig")
                if found is not None:
                    config_ctx, (_, config_fields) = ctx, found
            if exec_fields is None:
                found = _find_class_fields(ctx.tree, "ExecutionContext")
                if found is not None:
                    exec_ctx, (exec_node, exec_fields) = ctx, found
            if stackable_node is None:
                found_t = _find_tuple_assignment(ctx.tree, "STACKABLE_CONFIG_FIELDS")
                if found_t is not None:
                    stackable_ctx, (stackable_node, stackable) = ctx, found_t
            if shape_node is None:
                found_t = _find_tuple_assignment(ctx.tree, "STACK_SHAPE_FIELDS")
                if found_t is not None:
                    shape_ctx, (shape_node, shape) = ctx, found_t

        if config_ctx is None or stackable_ctx is None or shape_ctx is None:
            return  # partial tree: the anchors are not all in scope
        assert config_fields is not None and stackable_node is not None
        assert shape_node is not None

        for ctx, node, items, name in (
            (stackable_ctx, stackable_node, stackable, "STACKABLE_CONFIG_FIELDS"),
            (shape_ctx, shape_node, shape, "STACK_SHAPE_FIELDS"),
        ):
            if items is None:
                yield ctx.finding(
                    node,
                    self.code,
                    f"{name} must be a literal tuple of field-name strings "
                    "so the digest partition can be verified statically",
                )
                return
        assert stackable is not None and shape is not None

        fields = set(config_fields)
        stackable_set, shape_set = set(stackable), set(shape)
        anchor_ctx, anchor_node = stackable_ctx, stackable_node

        overlap = sorted(stackable_set & shape_set)
        if overlap:
            yield anchor_ctx.finding(
                anchor_node,
                self.code,
                "field(s) in both STACKABLE_CONFIG_FIELDS and "
                f"STACK_SHAPE_FIELDS: {', '.join(overlap)} (a field must "
                "live in exactly one bucket)",
            )
        if SEED_FIELD in stackable_set | shape_set:
            yield anchor_ctx.finding(
                anchor_node,
                self.code,
                f"{SEED_FIELD!r} is owned by seed resolution and must not "
                "appear in the stacking field lists",
            )
        unknown = sorted((stackable_set | shape_set) - fields)
        if unknown:
            yield anchor_ctx.finding(
                anchor_node,
                self.code,
                "stacking field list names not on NetworkConfig: "
                f"{', '.join(unknown)} (stale after a rename/removal?)",
            )
        missing = sorted(fields - stackable_set - shape_set - {SEED_FIELD})
        if missing:
            yield anchor_ctx.finding(
                anchor_node,
                self.code,
                f"NetworkConfig field(s) {', '.join(missing)} are in "
                "neither STACKABLE_CONFIG_FIELDS nor STACK_SHAPE_FIELDS: "
                "they would silently fall out of cache digests and batch "
                "grouping -- classify each as stackable or shape-fixing",
            )

        # execution knobs (workers, shard_mem, stream, ...) must never
        # share a name with a NetworkConfig field: a collision invites
        # threading an execution detail into a config -- and hence into
        # every spec digest -- by accident.  Model parameters belong on
        # NetworkConfig; how a batch runs belongs on ExecutionContext.
        if exec_ctx is not None and exec_fields is not None:
            collisions = sorted(set(exec_fields) & fields)
            if collisions:
                yield exec_ctx.finding(
                    exec_node,
                    self.code,
                    "ExecutionContext field(s) also on NetworkConfig: "
                    f"{', '.join(collisions)} -- execution knobs must stay "
                    "disjoint from digest-bearing config fields (rename "
                    "one side)",
                )
