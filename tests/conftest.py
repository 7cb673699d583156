"""Suite-wide rule: a test never skips itself into silence.

A skipped, xfailed or xpassed test turns a passing session into a failing
one (exit 1) and is listed in the terminal summary.
"""

import pytest

SILENCED = ("skipped", "xfailed", "xpassed")


def _silenced(reporter) -> list[str]:
    return [report.nodeid for key in SILENCED for report in reporter.stats.get(key, [])]


def pytest_terminal_summary(terminalreporter):
    nodeids = _silenced(terminalreporter)
    if nodeids:
        terminalreporter.section("skipped or xfailed tests fail the suite")
        for nodeid in nodeids:
            terminalreporter.write_line(nodeid)


def pytest_sessionfinish(session):
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None and _silenced(reporter) and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
