import contextlib
import re
import signal

import pytest

from lorenzkit import standard_battery


@pytest.fixture(scope="session")
def battery():
    """The canonical 20-member distribution panel, as (name, distribution)."""
    return standard_battery()


@pytest.fixture(scope="session")
def discrete_members(battery):
    return [(n, d) for n, d in battery if d.is_finite_discrete]


@pytest.fixture(scope="session")
def general_members(battery):
    return [(n, d) for n, d in battery if not d.is_finite_discrete]


@pytest.fixture
def deadline():
    """`with deadline(s):` fails the test after s seconds instead of hanging."""

    @contextlib.contextmanager
    def within(seconds: int):
        def expire(signum, frame):
            raise TimeoutError(f"did not finish within {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return within


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Record each property suite's generate-phase passing count (None if it
    did not pass) and its call time in `test_properties.GENERATED`, for
    criterion 9."""
    report = (yield).get_result()
    if report.when == "call" and item.path.name == "test_properties.py":
        stats = getattr(item, "hypothesis_statistics", "")
        found = re.search(r"generate phase.*?(\d+) passing", stats, re.S)
        count = int(found[1]) if found and report.passed else None
        item.module.GENERATED[item.name] = (count, report.duration)


@pytest.hookimpl(trylast=True)
def pytest_collection_modifyitems(items):
    """Run criterion 9 last, so it reads the property suites of this run."""
    items.sort(key=lambda item: item.name == "test_criterion_9_property_suites")
