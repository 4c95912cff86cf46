"""RPR007: RNG stream discipline -- construction and sharing.

The mutation each fixture seeds is one the equivalence tests only catch
*after* results diverge; the rule must catch the source pattern
statically.  Runs in isolation (``rules=[RngStreamRule()]``) so the
fixtures stay focused on stream discipline.
"""

from repro.lint.rules.rng_streams import RngStreamRule
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
