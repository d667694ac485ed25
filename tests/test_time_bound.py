"""The per-test wall-time bound of ``conftest.py`` stops a test that would
run forever, names it, and leaves the bound around it running."""

import signal
import time

import pytest

pytestmark = pytest.mark.skipif(not hasattr(signal, "setitimer"),
                                reason="no interval timer here")


def test_a_bound_stops_a_busy_loop(time_bound):
    start = time.monotonic()
    with pytest.raises(pytest.fail.Exception,
                       match="the busy loop ran past its 0.2 s"):
        with time_bound(0.2, "the busy loop"):
            while True:
                pass
    assert time.monotonic() - start < 5
    # the test's own bound is running again, with the time it has left
    left, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 100 < left <= 120
