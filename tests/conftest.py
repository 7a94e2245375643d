"""Shared test helpers."""

import multiprocessing
import os
import tracemalloc

import pytest

from otmil import numkit


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
def one_blas_thread():
    """Run the test with the loaded OpenBLAS on one thread, the one BLAS
    beside which ``numkit.Background`` forks, and yield OpenBLAS's setter
    of the count; skip the test when no OpenBLAS is found. The count is
    restored afterwards."""
    openblas = numkit._openblas()
    if openblas is None:
        pytest.skip("no OpenBLAS found")
    get, put = openblas
    before = get()
    put(1)
    yield put
    put(before)


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
