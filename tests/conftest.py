"""Shared fixtures, plus the acceptance-criteria report printed after a run."""

import pytest
from hypothesis import settings

# property tests draw the same examples on every run and have no time limit,
# so a loaded machine can neither fail them on time nor vary what they test
settings.register_profile("vrld", derandomize=True, deadline=None, max_examples=100, database=None)
settings.load_profile("vrld")

_ACCEPTANCE: dict[int, tuple[str, bool, str]] = {}


def record_criterion(number: int, title: str, ok: bool, detail: str = "") -> None:
    _ACCEPTANCE[number] = (title, ok, detail)


@pytest.fixture
def acceptance():
    return record_criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    tr = terminalreporter
    tr.write_sep("=", "acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        title, ok, detail = _ACCEPTANCE[number]
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] criterion {number:2d}: {title}"
        if detail:
            line += f" ({detail})"
        tr.write_line(line, green=ok, red=not ok)
