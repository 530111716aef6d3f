"""Shared fixtures and the end-of-run verification summary."""

import pytest

from qbft import QParams, QGrid, bessel

# Filled by the acceptance tests when the full suite runs; the terminal
# summary hook below prints one line per criterion at the end of the run.
ACCEPTANCE = {}


@pytest.fixture(scope="session")
def params():
    return QParams()


@pytest.fixture(scope="session")
def small_grid():
    return QGrid(-6, 20)


@pytest.fixture
def cold_weights():
    """Empties bessel's weight memos; calling the returned function empties
    them again."""
    def clear():
        for memo in (bessel._weight, bessel._lorentz_weight, bessel._term_ratio):
            memo.cache_clear()
    clear()
    return clear


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    report = ACCEPTANCE.get("report")
    if report is None:
        return
    terminalreporter.section("verification criteria")
    for line in report.lines():
        terminalreporter.write_line(line)
