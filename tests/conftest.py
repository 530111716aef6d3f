"""Shared fixtures and the end-of-run verification summary."""

import pytest

from qbft import QParams, QGrid, bessel, core, kernels, transform

# Filled by the acceptance tests when the full suite runs; the terminal
# summary hook below prints one line per criterion at the end of the run.
ACCEPTANCE = {}


@pytest.fixture(scope="session")
def params():
    return QParams()


@pytest.fixture(scope="session")
def small_grid():
    return QGrid(-6, 20)


def clear_memos():
    """Empty every functools memo in core, bessel, transform and kernels,
    found by introspection, so a cold-path test reaches every memo, new ones
    included, and a count of computed rows does not depend on test order."""
    for module in (core, bessel, transform, kernels):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


@pytest.fixture
def cold_memos():
    """Empties every memo in core, bessel, transform and kernels; calling the
    returned function empties them again."""
    clear_memos()
    return clear_memos


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    report = ACCEPTANCE.get("report")
    if report is None:
        return
    terminalreporter.section("verification criteria")
    for line in report.lines():
        terminalreporter.write_line(line)
