"""RPR007: RNG stream discipline across the kernel layer.

Bit-exact replay -- the property every backend-equivalence and
stacking test asserts empirically -- rests on three conventions the
type system cannot see:

1. **Single construction point.**  Every ``numpy`` generator used by a
   kernel derives from a ``SeedSequence`` built in
   ``simulation/rng.py`` (``make_rng`` / ``spawn_rngs`` /
   ``spawn_stacked_rngs``).  A ``default_rng`` / ``SeedSequence`` /
   ``Generator`` call anywhere else in the kernel directories creates
   an undisciplined stream whose draws cannot be replayed.
2. **No stream sharing.**  A generator object that flows into two
   different kernel entry points couples their draw sequences: adding
   a draw to one silently shifts the other.  Each generator is passed
   to at most one distinct callee per function.
3. **Draw parity.**  The serial engine writes one draw sequence twice:
   its cycle loop draws *during* each cycle
   (``ClockedEngine._inject``), and its stage-wise evaluation pre-draws
   the identical sequence a window at a time
   (``ClockedEngine._predraw_window``).  The two must issue the same
   number of draw sites or the streams diverge.

All three are checked statically here.  The rule scopes to the kernel
directories and exempts ``rng.py`` itself (the sanctioned construction
point).  Like every project rule it is silent on partial trees: check
3 runs only when a ``ClockedEngine`` class with both methods is in
scope.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.lint.config import KERNEL_DIRS, PathScope
from repro.lint.findings import Finding
from repro.lint.rules.base import FileContext, ProjectRule, dotted_name
from repro.lint.project import FunctionInfo, ProjectIndex, build_index

__all__ = ["RngStreamRule"]

#: Constructor call names that mint a new generator or seed sequence.
_CONSTRUCTORS = frozenset({"default_rng", "SeedSequence", "Generator", "RandomState"})

#: Sanctioned factory functions exported by ``simulation/rng.py``.
_SANCTIONED_FACTORIES = frozenset({"make_rng", "spawn_rngs", "spawn_stacked_rngs"})

#: Generator draw methods -- calling one of these on an rng name is a
#: draw site.
_DRAW_METHODS = frozenset(
    {"integers", "random", "choice", "shuffle", "permutation", "geometric",
     "poisson", "binomial", "uniform", "normal", "standard_normal"}
)


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


def _draw_sites(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> List[ast.Call]:
    """Draw sites inside one kernel function.

    A draw site is (a) a direct generator draw (``rng.integers(...)``),
    (b) a traffic-model call (``.generate_batch()`` / ``.generate()``),
    or (c) any call that receives a generator as an argument (the
    callee draws on the kernel's behalf, e.g. ``entry_queue(...,
    routing_rng)`` or ``service.sample(traffic_rng, n)``).
    """
    sites: List[ast.Call] = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        target = dotted_name(node.func)
        if target is not None:
            parts = target.rsplit(".", 2)
            method = parts[-1]
            receiver = parts[-2] if len(parts) > 1 else ""
            if method in _DRAW_METHODS and _is_rng_name(receiver):
                sites.append(node)
                continue
            if method in ("generate_batch", "generate"):
                sites.append(node)
                continue
        if any(
            (lambda n: n is not None and _is_rng_name(n.rsplit(".", 1)[-1]))(dotted_name(a))
            for a in list(node.args) + [kw.value for kw in node.keywords]
        ):
            sites.append(node)
    return sites


class RngStreamRule(ProjectRule):
    code = "RPR007"
    name = "rng-streams"
    why = (
        "kernel generators must come from simulation/rng.py, feed one "
        "entry point each, and match draw-site counts across the serial "
        "engine's two draw paths, or bit-exact replay silently breaks"
    )
    default_scope = PathScope(dirs=KERNEL_DIRS, exclude_files=frozenset({"rng.py"}))

    def check_project(
        self,
        files: Sequence[FileContext],
        index: "Optional[ProjectIndex]" = None,
    ) -> Iterator[Finding]:
        if index is None:
            index = build_index(files)

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
                    "spawn_rngs / spawn_stacked_rngs) to stay replayable",
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

        # (3) draw-site parity between the two serial draw paths.
        yield from self._check_draw_parity(files)

    def _check_draw_parity(
        self, files: Sequence[FileContext]
    ) -> Iterator[Finding]:
        """``ClockedEngine._inject`` (cycle loop) and
        ``ClockedEngine._predraw_window`` (stage-wise pre-draw) must issue
        the same number of draw sites."""
        for ctx in files:
            for cls in ast.walk(ctx.tree):
                if not (isinstance(cls, ast.ClassDef) and cls.name == "ClockedEngine"):
                    continue
                methods = {
                    node.name: node
                    for node in cls.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                inject = methods.get("_inject")
                predraw = methods.get("_predraw_window")
                if inject is None or predraw is None:
                    continue  # partial tree: only one draw path in scope
                n_inject, n_predraw = len(_draw_sites(inject)), len(_draw_sites(predraw))
                if n_inject != n_predraw:
                    yield ctx.finding(
                        predraw,
                        self.code,
                        f"draw-site count mismatch in ClockedEngine: _inject "
                        f"has {n_inject} draw sites, _predraw_window has "
                        f"{n_predraw} -- the stage-wise pre-draw must replay "
                        "the cycle loop's stream draw-for-draw",
                    )
