"""A wall-time bound on every test.

A test that runs past ``TEST_SECONDS`` of wall time fails with a message
naming it, so a change that makes a loop run forever fails the suite
instead of hanging it.  The bound is a SIGALRM interval timer
(``signal.setitimer``); where there is none, or off the main thread, the
test runs unbounded.  The slowest test takes under 10 s.
"""

import contextlib
import signal
import threading
import time

import pytest

TEST_SECONDS = 120


@contextlib.contextmanager
def _bound(seconds, name):
    """Fail the block once it has run ``seconds`` of wall time, naming
    ``name``.  A bound that encloses this one is restarted with the time it
    has left when the block ends."""
    if not hasattr(signal, "setitimer") \
            or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{name} ran past its {seconds:g} s wall-time bound",
                    pytrace=False)

    start = time.monotonic()
    handler = signal.signal(signal.SIGALRM, expire)
    left, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        if left:
            signal.setitimer(signal.ITIMER_REAL,
                             max(left - (time.monotonic() - start), 1e-3))


@pytest.fixture(autouse=True)
def _time_bound(request):
    with _bound(TEST_SECONDS, request.node.nodeid):
        yield


@pytest.fixture
def time_bound():
    """The bound itself: ``with time_bound(seconds, name): ...``."""
    return _bound
