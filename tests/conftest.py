"""Suite-wide hang guard: a test that runs past :data:`TEST_TIMEOUT_S` of
wall time fails, after ``faulthandler`` dumps where it was stuck.

A protocol bug can make a handler ask for redelivery forever, which on
the virtual clock is a loop that never ends; without a bound that hangs
the suite instead of failing one test.  The guard is a ``SIGALRM``
interval timer around each test's body, so it exists only where the
platform has ``SIGALRM``.
"""

import faulthandler
import signal
import sys
from contextlib import contextmanager

import pytest

#: Wall-clock seconds one test body may run.  The slowest legitimate test
#: takes about 5 s in tier-1 and about 23 s as a 500-seed fault-matrix cell
#: (``FK_FAULT_SEEDS=500``), so this sits well above both.
TEST_TIMEOUT_S = 300


@contextmanager
def hang_guard(seconds):
    """Fail the running test once ``seconds`` of wall time have passed
    inside the block, dumping every thread's stack first."""
    def hung(_signum, _frame):
        faulthandler.dump_traceback(file=sys.__stderr__)
        pytest.fail(f"test ran past the {seconds} s hang bound")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    with hang_guard(TEST_TIMEOUT_S):
        yield
