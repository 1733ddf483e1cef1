import contextlib
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
