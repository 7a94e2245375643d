"""Shared test helpers."""

import multiprocessing
import os
import tracemalloc

import pytest


@pytest.fixture(autouse=True)
def no_process_left():
    """Fail every test that leaves a ``multiprocessing`` child running: a
    worker of ``numkit.fan_out``, a ``Background`` process or a ``Pair``
    peer. The children left are terminated first, so that the next test
    starts without them."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join(timeout=10)
    assert left == [], f"processes left running: {left}"


@pytest.fixture(autouse=True)
def no_descriptor_left():
    """Fail every test that leaves a file descriptor of this process open,
    a raw ``os.pipe`` end included, which ``ResourceWarning`` does not see,
    and name what each one is open on. Where there is no ``/proc``, it
    checks nothing."""
    fds = "/proc/self/fd"
    if not os.path.isdir(fds):
        yield
        return
    before = set(os.listdir(fds))
    yield
    left = {}
    for fd in set(os.listdir(fds)) - before:
        try:
            left[int(fd)] = os.readlink(f"{fds}/{fd}")
        except FileNotFoundError:  # the listing's own descriptor, now closed
            pass
    assert left == {}, f"descriptors left open: {left}"


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args)``: the peak bytes that tracemalloc sees
    allocated while ``fn(*args)`` runs, above what was traced before it.
    Under ``python -X tracemalloc`` tracing is already on and stays on."""
    def measure(fn, *args):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
    return measure


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes that have called ``os.fork`` since the
    test began, one entry per call (a forked process inherits the list)."""
    calls = []
    real = os.fork

    def fork():
        calls.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return calls
