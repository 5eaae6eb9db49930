"""Shared pytest hooks and fixtures.

The acceptance tests register one ``[PASS]``/``[FAIL]`` line per criterion;
printing from inside a test would be swallowed by pytest's capture, so the
lines are replayed here in a terminal-summary section, which runs with
capture disabled and therefore always reaches the console (and any tee).
"""

import pytest

import cbandits.harness as harness

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def chunk_layouts(monkeypatch):
    """The chunk layout ``run_experiment`` chose, one list per call."""
    layouts = []
    chunk_bounds = harness._chunk_bounds

    def recorded(*args):
        layouts.append(chunk_bounds(*args))
        return layouts[-1]

    monkeypatch.setattr(harness, "_chunk_bounds", recorded)
    return layouts


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
