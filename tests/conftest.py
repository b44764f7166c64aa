"""Shared fixtures: the paper's worked example and workload helpers."""

from __future__ import annotations

import pytest

from repro.analysis import race
from repro.txn import Transaction, make_transaction

# ``REPRO_SANITIZE=1`` (CI's sanitizer job) makes ``repro.analysis.race``
# install a process-global detector at import.
_SANITIZING = race.active() is not None


@pytest.fixture(autouse=True)
def race_detector():
    """Under ``REPRO_SANITIZE=1``: a fresh detector per test, and any race
    it reports fails the test.  Yields the detector (``None`` when off).

    ``tests/analysis/test_race.py`` manages the global detector itself and
    overrides this fixture.
    """
    if not _SANITIZING:
        yield None
        return
    detector = race.enable()
    yield detector
    findings = detector.report()
    assert not findings, "\n".join(finding.render() for finding in findings)


@pytest.fixture
def paper_transactions() -> list[Transaction]:
    """The six transactions of Table III (the paper's running example)."""
    return [
        make_transaction(1, reads=["A2"], writes=["A1"]),
        make_transaction(2, reads=["A3"], writes=["A2"]),
        make_transaction(3, reads=["A4"], writes=["A2"]),
        make_transaction(4, reads=["A4"], writes=["A3"]),
        make_transaction(5, reads=["A4"], writes=["A4"]),
        make_transaction(6, reads=["A1"], writes=["A3"]),
    ]


@pytest.fixture
def figure1_transactions() -> list[Transaction]:
    """Figure 1's scenario: T1 and T2 precede T3 on A1, T3 precedes T4 on A2.

    The expected total order is T1, T2 (concurrent) -> T3 -> T4.
    """
    return [
        make_transaction(1, reads=["A1"], writes=[]),
        make_transaction(2, reads=["A1"], writes=[]),
        make_transaction(3, reads=["A2"], writes=["A1"]),
        make_transaction(4, reads=[], writes=["A2"]),
    ]
