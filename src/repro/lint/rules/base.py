"""Rule plumbing shared by every :mod:`repro.lint` rule.

A rule is a small object with identity (``code``/``name``/``why``), a
default :class:`~repro.lint.config.PathScope`, and one of two check
methods:

* :class:`FileRule` -- checks one file's AST at a time (most rules);
* :class:`ProjectRule` -- sees every in-scope file together, for
  cross-module invariants such as the RPR006 digest-completeness check.

Rules yield :class:`~repro.lint.findings.Finding` records; the engine
owns suppression handling, scoping, and ordering.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.lint.config import PathScope
from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.lint.project import ProjectIndex

__all__ = ["FileContext", "FileRule", "ProjectRule", "Rule", "dotted_name"]


@dataclass
class FileContext:
    """One parsed source file as the rules see it.

    ``display_path`` is what findings carry (relative when possible);
    ``path`` is the real location used for scope decisions.
    """

    path: Path
    display_path: str
    tree: ast.Module
    source: str

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        """A finding anchored at ``node`` in this file."""
        return Finding(
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        )


class Rule:
    """Identity shared by file-level and project-level rules."""

    #: stable rule code, e.g. ``"RPR001"``
    code: str = ""
    #: short kebab-ish label for listings
    name: str = ""
    #: one-line statement of the invariant the rule protects
    why: str = ""
    #: where the invariant holds by default
    default_scope: PathScope = PathScope()


class FileRule(Rule):
    """A rule checked one file at a time."""

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule needing every in-scope file at once (cross-module).

    The engine also hands over the whole-project
    :class:`~repro.lint.project.ProjectIndex` (symbol table + call
    graph); rules that only need the raw files may ignore it.  The
    index covers *every* linted file, while ``files`` is pre-filtered
    to this rule's scope.
    """

    def check_project(
        self,
        files: Sequence[FileContext],
        index: "Optional[ProjectIndex]" = None,
    ) -> Iterator[Finding]:
        raise NotImplementedError


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``.

    Chains rooted in anything but a plain name (calls, subscripts,
    ``self`` attributes are fine -- ``self`` is just a name) resolve to
    ``None``; rules treat that as "not a module reference".
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
