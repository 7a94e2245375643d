"""Shared test helpers."""

import tracemalloc

import pytest


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
