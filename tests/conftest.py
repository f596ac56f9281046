import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    # a forked child still running, or ended and never reaped, fails the test
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # this process has no child at all
        return
    pytest.fail(f"a child process outlived the test (waitpid: pid {pid}, status {status})")


@pytest.fixture
def forked_pids(monkeypatch):
    """The pids of the children ``os.fork`` starts in this test's process."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids
