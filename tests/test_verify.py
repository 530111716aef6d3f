"""The suite runner: typed refusals before any work, and one clock for the
criteria it times."""

import pytest

from qbft import verify
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


def test_duplicate_criterion_is_invalid_params():
    with pytest.raises(InvalidParams, match=r"duplicate criteria: \[10\]"):
        run_suite(only=[10, 2, 10])


@pytest.mark.parametrize("ident", [1, 2, 6])
def test_window_short_of_the_corpus_is_refused_before_loading(ident, monkeypatch):
    def load(*args, **kwargs):
        raise AssertionError("the suite loaded its context")

    monkeypatch.setattr(verify, "_Context", load)
    with pytest.raises(WindowError, match=r"does not cover the corpus window \[-24, 64\]"):
        run_suite(only=[ident], window=QGrid(-4, 12))


def test_criteria_off_the_corpus_window_still_run_on_it():
    report = run_suite(only=[7, 10], window=QGrid(-4, 12))
    assert [r.ident for r in report.results] == [7, 10]
    assert report.passed


@pytest.mark.parametrize("only", [[], [3.0], [True], ["3"], (1, 2)],
                         ids=["empty", "float", "bool", "str", "tuple"])
def test_malformed_criterion_list_is_refused_before_loading(only, monkeypatch):
    def load(*args, **kwargs):
        raise AssertionError("the suite loaded its corpus")

    monkeypatch.setattr(verify, "load_corpus", load)
    with pytest.raises(InvalidParams):
        run_suite(only=only)
