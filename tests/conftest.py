"""Shared pytest wiring: per-criterion result lines for the acceptance suite, and a
check that no test leaves a source's decode-ahead thread running."""

from __future__ import annotations

import threading

import pytest

# nodeid basename -> printable criterion label, filled in collection order
_ACCEPTANCE_RESULTS: dict[str, str] = {}


def _acceptance_label(nodeid: str) -> str | None:
    if "test_acceptance.py" not in nodeid:
        return None
    name = nodeid.rsplit("::", 1)[-1]
    return name.removeprefix("test_").replace("_", " ")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    label = _acceptance_label(report.nodeid)
    if label is None:
        return
    if report.when == "call":
        _ACCEPTANCE_RESULTS[label] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.outcome != "passed":
        _ACCEPTANCE_RESULTS[label] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for label, verdict in _ACCEPTANCE_RESULTS.items():
        terminalreporter.write_line(f"ACCEPTANCE {verdict}: {label}")


@pytest.fixture(autouse=True)
def _no_decode_ahead_thread_left():
    yield
    left = [t for t in threading.enumerate() if t.name == "voiceforge-decode-ahead"]
    assert not left, "a decode-ahead worker outlived its test"
