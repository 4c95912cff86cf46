"""RPR007: RNG stream discipline across the kernel layer.

Bit-exact replay -- the property every stacking, sharding and
differential test asserts empirically -- rests on two conventions the
type system cannot see:

1. **Single construction point.**  Every ``numpy`` generator used by a
   kernel derives from a ``SeedSequence`` built in
   ``simulation/rng.py`` (``make_rng`` / ``spawn_rngs``).  A ``default_rng`` / ``SeedSequence`` /
   ``Generator`` call anywhere else in the kernel directories creates
   an undisciplined stream whose draws cannot be replayed.
2. **No stream sharing.**  A generator object that flows into two
   different kernel entry points couples their draw sequences: adding
   a draw to one silently shifts the other.  Each generator is passed
   to at most one distinct callee per function.

Both are checked statically here.  The rule scopes to the kernel
directories and exempts ``rng.py`` itself (the sanctioned construction
point).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Sequence, Set

from repro.lint.config import KERNEL_DIRS, PathScope
from repro.lint.findings import Finding
from repro.lint.rules.base import FileContext, ProjectRule, dotted_name
from repro.lint.project import ProjectIndex

__all__ = ["RngStreamRule"]

#: Constructor call names that mint a new generator or seed sequence.
_CONSTRUCTORS = frozenset({"default_rng", "SeedSequence", "Generator", "RandomState"})

#: Sanctioned factory functions exported by ``simulation/rng.py``.
_SANCTIONED_FACTORIES = frozenset({"make_rng", "spawn_rngs"})


def _is_rng_name(name: str) -> bool:
    """Whether a variable name denotes a generator by convention."""
    return "rng" in name.lower()


def _constructor_calls(tree: ast.Module) -> Iterator[ast.Call]:
    """Generator/SeedSequence constructor calls anywhere in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            target = dotted_name(node.func)
            if target is not None and target.rsplit(".", 1)[-1] in _CONSTRUCTORS:
                yield node


def _rng_flow_targets(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> Dict[str, Set[str]]:
    """``{rng name: set of callee names it is passed to}`` per function.

    Only *call-argument* flow counts: ``f(traffic_rng)`` sends the
    stream into ``f``; direct draws (``rng.integers(...)``) stay local
    and are fine.
    """
    flows: Dict[str, Set[str]] = {}
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        callee = dotted_name(node.func)
        if callee is None:
            continue
        callee_tail = callee.rsplit(".", 1)[-1]
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            name = dotted_name(arg)
            if name is None:
                continue
            tail = name.rsplit(".", 1)[-1]
            if _is_rng_name(tail):
                flows.setdefault(tail, set()).add(callee_tail)
    return flows


class RngStreamRule(ProjectRule):
    code = "RPR007"
    name = "rng-streams"
    why = (
        "kernel generators must come from simulation/rng.py and feed one "
        "entry point each, or bit-exact replay silently breaks"
    )
    default_scope = PathScope(dirs=KERNEL_DIRS, exclude_files=frozenset({"rng.py"}))

    def check_project(
        self,
        files: Sequence[FileContext],
        index: "Optional[ProjectIndex]" = None,
    ) -> Iterator[Finding]:
        # (1) generator construction outside the sanctioned module.
        for ctx in files:
            for call in _constructor_calls(ctx.tree):
                name = dotted_name(call.func)
                yield ctx.finding(
                    call,
                    self.code,
                    f"generator constructed via {name} outside "
                    "simulation/rng.py: kernel streams must derive from "
                    "the sanctioned SeedSequence factories (make_rng / "
                    "spawn_rngs) to stay replayable",
                )

        # (2) one generator, one kernel entry point.
        for ctx in files:
            for node in ast.walk(ctx.tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for rng_name, callees in sorted(_rng_flow_targets(node).items()):
                    sinks = sorted(callees - _SANCTIONED_FACTORIES)
                    if len(sinks) > 1:
                        yield ctx.finding(
                            node,
                            self.code,
                            f"generator {rng_name!r} flows into multiple "
                            f"callees in {node.name} ({', '.join(sinks)}): "
                            "sharing one stream across kernels couples "
                            "their draw sequences -- spawn a child stream "
                            "per consumer instead",
                        )
