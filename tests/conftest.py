import contextlib
import os
import signal
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture()
def deadline():
    """deadline(seconds) is a context manager that raises TimeoutError in
    the main thread when its block runs longer, so a sampler that stops
    returning fails its test instead of hanging the suite."""
    @contextlib.contextmanager
    def within(seconds):
        def fail(signum, frame):
            raise TimeoutError(f"no return within {seconds} s")

        previous = signal.signal(signal.SIGALRM, fail)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return within
