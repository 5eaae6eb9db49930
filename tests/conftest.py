"""Shared pytest hooks and fixtures.

The acceptance tests register one ``[PASS]``/``[FAIL]`` line per criterion;
printing from inside a test would be swallowed by pytest's capture, so the
lines are replayed here in a terminal-summary section, which runs with
capture disabled and therefore always reaches the console (and any tee).
"""

import pytest

import cbandits.core as core
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


@pytest.fixture(params=["inline", "ahead"])
def draw_path(request, monkeypatch):
    """Run the test once with ``step_uniforms`` drawing each block when it
    is asked for, and once with a helper thread drawing ahead from one
    replication up, whatever the CPU count."""
    ahead = request.param == "ahead"
    monkeypatch.setattr(core, "_DRAW_AHEAD_REPLICATIONS", 1)
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2 if ahead else 1)
    return request.param


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
