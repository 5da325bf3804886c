"""Shared pytest plumbing: the acceptance tests register one line per
criterion here and the summary hook prints them after the run, and every
test starts with the engine's memo of order-matrix answers empty."""

import pytest

import diffalg.engine

ACCEPTANCE_LINES = []


@pytest.fixture(autouse=True)
def _empty_answers_memo():
    # so no test sees answers another test's matrices left behind
    diffalg.engine._ANSWERS.clear()


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
