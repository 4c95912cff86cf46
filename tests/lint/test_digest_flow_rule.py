"""RPR006: kernel-reachable ``ExperimentSpec`` reads must enter ``identity()``.

The fixtures model the real anchor layout (``ExperimentSpec`` with its
``identity()`` method in ``exec/``, a kernel entry point under
``simulation/``); the rule runs in isolation
(``rules=[DigestFlowRule()]``).
"""

import ast
from pathlib import Path

import repro
from repro.lint import build_index, iter_python_files
from repro.lint.rules.base import FileContext
from repro.lint.rules.digest_flow import ENTRY_POINTS, DigestFlowRule, _spec_anchor
from tests.lint.helpers import codes

EXPERIMENT_SPEC = """\
from dataclasses import dataclass


@dataclass(frozen=True)
class ExperimentSpec:
    config: object = None
    n_cycles: int = 0
    warmup: int = 0
    label: str = ""

    def identity(self):
        return {
            "config": self.config,
            "n_cycles": self.n_cycles,
            "warmup": self.warmup,
        }
"""


def tree(**files):
    return {"exec/experiment.py": EXPERIMENT_SPEC, **files}


def lint(lint_tree, files):
    return lint_tree(files, rules=[DigestFlowRule()])


class TestSpecLeg:
    def test_kernel_read_of_non_identity_spec_field_fires(self, lint_tree):
        kernel = (
            "def stream_totals(spec):\n"
            "    return helper(spec)\n"
            "\n"
            "\n"
            "def helper(spec):\n"
            "    return spec.label\n"
        )
        result = lint(lint_tree, tree(**{"simulation/streamed.py": kernel}))
        assert codes(result) == ["RPR006"]
        finding = result.findings[0]
        assert "label" in finding.message
        assert "identity()" in finding.message

    def test_display_layer_label_read_is_quiet(self, lint_tree):
        """Reporting layers legitimately read non-identity metadata;
        only reads inside the kernel directories are hazards."""
        kernel = "def stream_totals(spec):\n    return render(spec)\n"
        display = "def render(spec):\n    return spec.label\n"
        result = lint(
            lint_tree,
            tree(**{"simulation/streamed.py": kernel, "api/report.py": display}),
        )
        assert result.ok, result.findings

    def test_identity_field_read_is_quiet(self, lint_tree):
        kernel = "def stream_totals(spec):\n    return spec.n_cycles\n"
        result = lint(lint_tree, tree(**{"simulation/streamed.py": kernel}))
        assert result.ok, result.findings

    def test_partial_tree_is_quiet(self, lint_tree):
        """No ExperimentSpec anchor in scope -> nothing to check against."""
        kernel = "def stream_totals(spec):\n    return spec.label\n"
        result = lint(lint_tree, {"simulation/streamed.py": kernel})
        assert result.ok, result.findings

    def test_shipped_sources_hold_every_anchor(self):
        """On the package itself the rule finds ExperimentSpec.identity()
        and all three entry points, so it checks rather than returns."""
        files = []
        for path in iter_python_files([Path(repro.__file__).parent]):
            source = path.read_text()
            files.append(
                FileContext(
                    path=path, display_path=str(path), tree=ast.parse(source), source=source
                )
            )
        spec_fields, identity_attrs = _spec_anchor(files)
        assert {"config", "n_cycles", "warmup", "label"} <= spec_fields
        assert {"config", "n_cycles", "warmup"} <= identity_attrs
        assert "label" not in identity_attrs
        index = build_index(files)
        assert all(index.find(entry) for entry in ENTRY_POINTS)
