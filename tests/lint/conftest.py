"""Shared fixtures for the repro.lint test suite.

``project_of`` builds an in-memory :class:`repro.lint.Project` from a
``{relative_path: source}`` mapping (no disk I/O beyond an empty
per-test root, so pass unit tests stay fast and hermetic), and
``run_rule`` drives exactly one registered pass over a project and
returns its raw findings (no suppression filtering — that
is :func:`repro.lint.run_lint`'s job and is tested separately).
"""

import textwrap
from pathlib import Path

import pytest

from repro.lint.core import SourceFile
from repro.lint.project import Project
from repro.lint.registry import resolve


@pytest.fixture
def project_of(tmp_path):
    def build(files, root=None):
        sources = [
            SourceFile(Path(path), source=textwrap.dedent(source))
            for path, source in files.items()
        ]
        # An empty root by default, so a synthetic project never reads
        # this repository's own README/INTERNALS as its docs.
        return Project(sources, root=tmp_path if root is None else root)

    return build


@pytest.fixture
def run_rule():
    def run(rule, project):
        lint_pass = resolve(rule)()
        findings = []
        for file in project.parsed():
            findings.extend(lint_pass.check_file(file, project))
        findings.extend(lint_pass.check_project(project))
        return findings

    return run
