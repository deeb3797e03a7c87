"""The ``differential_checker`` fixture: every ``LiveChecker`` a test
builds through the program's entry points also runs the reference
checker and is compared with it after every trace event."""

import importlib

import pytest

from tests.consistency.reference import DifferentialChecker

#: Every module that binds ``LiveChecker`` at import time.
CHECKER_IMPORTERS = (
    "repro.consistency",
    "repro.consistency.checker",
    "repro.serve.service",
    "repro.ops.session",
    "repro.chaos.runner",
    "repro.harness.experiment",
    "repro.harness.fig_experiments",
    "repro.algos.duel",
)


class DifferentialRecord:
    """What the patched checkers saw during one test."""

    def assert_agreed(self) -> None:
        checkers = DifferentialChecker.instances
        assert checkers, "no LiveChecker was built"
        assert sum(c.events_compared for c in checkers), "no trace event reached a checker"
        assert not DifferentialChecker.mismatches, DifferentialChecker.mismatches[:3]


@pytest.fixture
def differential_checker(monkeypatch):
    for name in CHECKER_IMPORTERS:
        module = importlib.import_module(name)
        assert hasattr(module, "LiveChecker"), name
        monkeypatch.setattr(module, "LiveChecker", DifferentialChecker)
    DifferentialChecker.instances = []
    DifferentialChecker.mismatches = []
    yield DifferentialRecord()
    DifferentialChecker.instances = []
    DifferentialChecker.mismatches = []
