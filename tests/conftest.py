"""Fixtures shared by the test modules."""

import dataclasses

import numpy as np
import pytest


def _arrays(value):
    """Every numpy array reachable from value through dataclass fields,
    tuples, lists and dict values."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)


@pytest.fixture
def reachable_arrays():
    """The arrays a shared result exposes, as a list."""
    return lambda value: list(_arrays(value))


def _assert_frozen(value):
    """Every array reachable from value refuses both an item write and being
    made writeable again; a bare `flags.writeable` check misses the second,
    which an array that owns its data allows."""
    arrays = list(_arrays(value))
    assert arrays, "nothing to check"
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0
        with pytest.raises(ValueError):
            a.setflags(write=True)


@pytest.fixture(scope="session")
def assert_frozen():
    """Assert that a shared result exposes no array a caller could change."""
    return _assert_frozen
