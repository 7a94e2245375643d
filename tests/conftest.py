"""Shared test helpers."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args)``: the peak bytes that tracemalloc sees
    allocated while ``fn(*args)`` runs."""
    def measure(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
