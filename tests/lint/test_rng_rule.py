"""RPR007: RNG stream discipline -- construction, sharing, parity.

The mutation each fixture seeds is one the equivalence tests only catch
*after* results diverge; the rule must catch the source pattern
statically.  Runs in isolation (``rules=[RngStreamRule()]``) so the
fixtures stay focused on stream discipline.
"""

import ast
from pathlib import Path

from repro.lint.rules.rng_streams import RngStreamRule
from repro.simulation import engine as engine_module
from tests.lint.helpers import codes


def lint(lint_tree, files):
    return lint_tree(files, rules=[RngStreamRule()])


class TestConstructionPoint:
    def test_constructor_in_kernel_dir_fires(self, lint_tree):
        result = lint(
            lint_tree,
            {
                "simulation/traffic.py": (
                    "import numpy as np\n"
                    "\n"
                    "\n"
                    "def make(seed):\n"
                    "    return np.random.default_rng(seed)\n"
                )
            },
        )
        assert codes(result) == ["RPR007"]
        assert "default_rng" in result.findings[0].message
        assert "simulation/rng.py" in result.findings[0].message

    def test_seed_sequence_constructor_fires(self, lint_tree):
        result = lint(
            lint_tree,
            {
                "core/sampler.py": (
                    "from numpy.random import SeedSequence\n"
                    "\n"
                    "\n"
                    "def split(seed):\n"
                    "    return SeedSequence(seed).spawn(2)\n"
                )
            },
        )
        assert codes(result) == ["RPR007"]

    def test_rng_module_itself_is_exempt(self, lint_tree):
        """``simulation/rng.py`` IS the sanctioned construction point."""
        result = lint(
            lint_tree,
            {
                "simulation/rng.py": (
                    "import numpy as np\n"
                    "\n"
                    "\n"
                    "def make_rng(seed):\n"
                    "    return np.random.default_rng(np.random.SeedSequence(seed))\n"
                )
            },
        )
        assert result.ok, result.findings

    def test_non_kernel_dirs_out_of_scope(self, lint_tree):
        result = lint(
            lint_tree,
            {
                "analysis/bootstrap.py": (
                    "import numpy as np\n"
                    "rng = np.random.default_rng(0)\n"
                )
            },
        )
        assert result.ok, result.findings


class TestStreamSharing:
    def test_generator_shared_across_two_kernels_fires(self, lint_tree):
        """THE invariant: one stream feeding two kernel entry points
        couples their draw sequences."""
        result = lint(
            lint_tree,
            {
                "simulation/engine.py": (
                    "def run(traffic_rng):\n"
                    "    inject(traffic_rng)\n"
                    "    route(traffic_rng)\n"
                )
            },
        )
        assert codes(result) == ["RPR007"]
        finding = result.findings[0]
        assert "traffic_rng" in finding.message
        assert "inject" in finding.message and "route" in finding.message

    def test_single_consumer_is_quiet(self, lint_tree):
        result = lint(
            lint_tree,
            {
                "simulation/engine.py": (
                    "def run(traffic_rng, routing_rng):\n"
                    "    inject(traffic_rng)\n"
                    "    route(routing_rng)\n"
                )
            },
        )
        assert result.ok, result.findings

    def test_sanctioned_factory_does_not_count_as_consumer(self, lint_tree):
        """Passing a stream through ``spawn_rngs`` derives children; it
        is not a second kernel consumer."""
        result = lint(
            lint_tree,
            {
                "simulation/engine.py": (
                    "def run(rng):\n"
                    "    child_rng = spawn_rngs(rng, 2)\n"
                    "    inject(child_rng)\n"
                )
            },
        )
        assert result.ok, result.findings


class TestBackendParity:
    """``ClockedEngine._inject`` vs ``ClockedEngine._predraw_window``: the
    one draw sequence the repository still writes twice."""

    INJECT_TWO_DRAWS = (
        "    def _inject(self, t, measuring):\n"
        "        arrivals = self.traffic.generate()\n"
        "        lines = self.topology.entry_queue(arrivals, self.routing_rng)\n"
    )

    @staticmethod
    def engine(*methods):
        return {"simulation/engine.py": "class ClockedEngine:\n" + "\n".join(methods)}

    def test_matching_draw_sites_are_quiet(self, lint_tree):
        predraw = (
            "    def _predraw_window(self, end):\n"
            "        a = self.traffic.generate()\n"
            "        d = traffic_rng.integers(0, 2, size=end)\n"
        )
        result = lint(lint_tree, self.engine(self.INJECT_TWO_DRAWS, predraw))
        assert result.ok, result.findings

    def test_draw_site_mismatch_fires(self, lint_tree):
        """Dropping one pre-draw desynchronises the stage-wise stream from
        the cycle loop -- a bug only visible as a statistical drift at run
        time, caught here as a count mismatch."""
        predraw = (
            "    def _predraw_window(self, end):\n"
            "        a = self.traffic.generate()\n"
        )
        result = lint(lint_tree, self.engine(self.INJECT_TWO_DRAWS, predraw))
        assert codes(result) == ["RPR007"]
        finding = result.findings[0]
        assert "mismatch" in finding.message
        assert "2 draw sites" in finding.message

    def test_single_backend_is_quiet(self, lint_tree):
        """Partial tree: parity needs both halves of the pair."""
        result = lint(lint_tree, self.engine(self.INJECT_TWO_DRAWS))
        assert result.ok, result.findings


class TestShippedEngineParity:
    """The check is live on the shipped serial engine, not only on
    synthetic trees.  (Linted alone, the file's waivers for other rules
    are reported stale as RPR009; only RPR007 findings count here.)"""

    @staticmethod
    def shipped_engine():
        return Path(engine_module.__file__).read_text()

    @staticmethod
    def rpr007(result):
        return [f for f in result.findings if f.rule == "RPR007"]

    def test_shipped_engine_is_quiet(self, lint_tree):
        result = lint(lint_tree, {"simulation/engine.py": self.shipped_engine()})
        assert self.rpr007(result) == []

    def test_dropping_a_predraw_draw_fires(self, lint_tree):
        source = self.shipped_engine()
        cls = next(
            node
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and node.name == "ClockedEngine"
        )
        predraw = next(
            node
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name == "_predraw_window"
        )
        lines = source.splitlines(keepends=True)
        body = "".join(lines[predraw.lineno - 1 : predraw.end_lineno])
        # the entry_queue call stops receiving the routing generator, so
        # it no longer counts as a draw site
        mutated = body.replace("self.routing_rng", "None")
        assert mutated != body
        lines[predraw.lineno - 1 : predraw.end_lineno] = [mutated]
        result = lint(lint_tree, {"simulation/engine.py": "".join(lines)})
        [finding] = self.rpr007(result)
        assert "_inject has 2 draw sites, _predraw_window has 1" in finding.message
