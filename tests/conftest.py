"""A wall-clock bound on every test.

A fault that makes a loop run forever (say, a power series whose powers
never vanish) then fails its test after ``TEST_BOUND_S`` seconds instead of
hanging the suite.  The bound is about ten times the slowest test.  It uses
``signal.alarm`` and is left out where the platform has no ``SIGALRM``.
"""

import signal

import pytest

TEST_BOUND_S = 30


class TestTimeBoundExceeded(BaseException):
    """Not an ``Exception``: hypothesis and the CLI's handlers let it through,
    so the test fails at once instead of being retried or reported as output."""

    __test__ = False


@pytest.fixture(autouse=True)
def time_bound():
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TestTimeBoundExceeded("test ran past its %d s bound" % TEST_BOUND_S)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_BOUND_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
