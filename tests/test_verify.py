"""The suite runner: typed refusals before any work, and one clock for the
criteria it times."""

import pytest

from qbft.core import InvalidParams, QGrid, WindowError
from qbft.verify import run_suite


def test_unknown_criterion_is_invalid_params():
    with pytest.raises(InvalidParams, match=r"unknown criteria: \[11\]"):
        run_suite(only=[11])


@pytest.mark.parametrize("ident", [4, 6])
def test_window_without_interior_band_is_refused(ident):
    with pytest.raises(WindowError, match="interior band"):
        run_suite(only=[ident], window=QGrid(0, 10))


def test_criterion_times_are_positive_and_within_the_suite_time():
    report = run_suite(only=[2, 5])
    assert [r.ident for r in report.results] == [2, 5]
    assert all(r.seconds > 0 for r in report.results)
    assert sum(r.seconds for r in report.results) <= report.seconds
