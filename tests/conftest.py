from __future__ import annotations

import dataclasses

import pytest

from acmcheck.chart import sample_points
from acmcheck.manifest import load_fixture

FIXTURES = ("flat", "example1", "example2", "example3-qs", "example3-aqs")

_acceptance_lines: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Collector for one pass/fail line per acceptance criterion; the lines
    are replayed in the terminal summary."""
    return _acceptance_lines


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def manifests():
    return {name: load_fixture(name) for name in FIXTURES}


@pytest.fixture(scope="session")
def sample_sets(manifests):
    return {name: sample_points(m, m.samples, m.seed) for name, m in manifests.items()}


@pytest.fixture(scope="session")
def twisted(manifests):
    """A manifest whose metric depends on the Reeb coordinate and carries an
    off-diagonal entry: activates the C blocks and Reeb-derivative paths that
    the bundled fixtures leave at zero."""
    from acmcheck.expr import parse

    base = manifests["example1"]
    coords = base.coordinates
    g = base.metric_frame.copy()
    g[0, 0] = parse("1 + 0.3*sin(v)", coords)
    g[0, 1] = g[1, 0] = parse("0.2*x", coords)
    return dataclasses.replace(base, metric_frame=g)
