"""Shared fixtures and the end-of-run verification summary."""

from collections import OrderedDict

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
def weight_table(monkeypatch):
    """bessel with an empty weight table; the old table returns afterwards."""
    monkeypatch.setattr(bessel, "_weight_tables", OrderedDict())
    monkeypatch.setattr(bessel, "_weight_count", 0)
    return bessel


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    report = ACCEPTANCE.get("report")
    if report is None:
        return
    terminalreporter.section("verification criteria")
    for line in report.lines():
        terminalreporter.write_line(line)
