"""A per-test time limit from the standard library: a test still running
after TIME_LIMIT_S seconds fails with a traceback at the line it was on,
rather than running on until the CI job's own timeout.  Where SIGALRM or
setitimer is missing (Windows), tests run without a limit."""

import signal

import pytest

TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def time_limit(request):
    if not hasattr(signal, "SIGALRM") or not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError("%s ran past its %d s limit"
                           % (request.node.nodeid, TIME_LIMIT_S))
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
