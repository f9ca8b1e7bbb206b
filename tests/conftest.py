import re
from pathlib import Path

import pytest

from hyperops.complexes import standard_fixtures

# Tier-1 ends with exactly these failures: acceptance criteria whose
# printed claims are false (see README, Acceptance status).
EXPECTED_FAILURE = re.compile(r"tests/test_acceptance\.py::test_criterion_([234])_")
_FULL_RUN = pytest.StashKey[bool]()


def _covers_tests_dir(config):
    here = Path(__file__).resolve().parent
    for arg in config.args:
        path = Path(config.invocation_params.dir, arg).resolve()
        if "::" not in arg and (path == here or path in here.parents):
            return True
    return False


def pytest_sessionfinish(session):
    # A run that selected or stopped early says nothing about the set.
    session.config.stash[_FULL_RUN] = (
        _covers_tests_dir(session.config)
        and not session.config.option.keyword
        and not session.config.option.markexpr
        and not session.shouldstop
        and not session.shouldfail
    )


def pytest_terminal_summary(terminalreporter, config):
    """Name every failure outside the documented three, any of the three
    that did not fail, and every skipped test: a full run skips none.
    Reports only; the exit status is untouched."""
    if not config.stash.get(_FULL_RUN, False) or terminalreporter.stats.get("deselected"):
        return
    failed = {
        rep.nodeid
        for key in ("failed", "error")
        for rep in terminalreporter.stats.get(key, [])
    }
    extra = sorted(f for f in failed if not EXPECTED_FAILURE.match(f))
    seen = {m.group(1) for f in failed if (m := EXPECTED_FAILURE.match(f))}
    missing = [f"test_acceptance.py::test_criterion_{c}_*" for c in "234" if c not in seen]
    skipped = sorted(rep.nodeid for rep in terminalreporter.stats.get("skipped", []))
    if not extra and not missing and not skipped:
        return
    terminalreporter.section("tier-1 result differs from the documented three failures, no skips")
    for nodeid in extra:
        terminalreporter.write_line(f"extra failure: {nodeid}")
    for pattern in missing:
        terminalreporter.write_line(f"expected failure did not fail: {pattern}")
    for nodeid in skipped:
        terminalreporter.write_line(f"skipped: {nodeid}")


@pytest.fixture(scope="session")
def fixtures():
    return standard_fixtures()


@pytest.fixture(scope="session")
def delta1(fixtures):
    return fixtures["delta1"]


@pytest.fixture(scope="session")
def delta2(fixtures):
    return fixtures["delta2"]


@pytest.fixture(scope="session")
def p3(fixtures):
    return fixtures["p3"]


@pytest.fixture(scope="session")
def sk1d3(fixtures):
    return fixtures["sk1d3"]
