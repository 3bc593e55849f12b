"""A time limit on each test: a test that runs longer than TIME_LIMIT_S
seconds, set-up and tear-down included, ends the run with every thread's
traceback on stderr and exit status 1, so a hang fails the suite instead of
stalling it.  The hook is run-wide, so a run that collects this directory
limits every test it runs, perfbench's too.  The slowest test takes about
4 s on a 2-vCPU machine."""
import faulthandler
import os
import sys

import pytest

TIME_LIMIT_S = 120

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # A copy of stderr taken before any test's output is captured, so the
    # traceback reaches the terminal.
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(TIME_LIMIT_S, exit=True,
                                      file=item.config.stash[_STDERR])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
