"""Helpers shared by the test modules."""

import tracemalloc

import pytest


def _traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of calling fn above the traced
    memory at its start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The memory gates' measure: traced_peak(fn) is the tracemalloc peak
    of fn() above its start, in bytes."""
    return _traced_peak
