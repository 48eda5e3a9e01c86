import dataclasses

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mtsk.cohort import Cohort, MTSample

# Property tests run without a per-example deadline, because wall time per
# example varies with machine load, and with a fixed derivation of their
# examples, so that every run of the suite checks the same cases.
settings.register_profile("mtsk", deadline=None, derandomize=True)
settings.load_profile("mtsk")


def _assert_same(a, b):
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b, equal_nan=True)
    else:
        assert a == b


@pytest.fixture(scope="session")
def assert_same_fields():
    """Asserts that two objects are equal field by field, with equal types and dtypes.

    Dataclasses and lists are compared element by element, arrays by dtype,
    shape and value (NaN equal to NaN), and everything else by type and ``==``.
    """
    return _assert_same


def _poisoned(cohort, data, label):
    hidden = cohort.mask == 0
    fill = data.draw(arrays(float, int(hidden.sum()),
                            elements=st.floats(-1e300, 1e300, allow_nan=False)), label=label)
    values = cohort.values.copy()
    values[hidden] = fill
    return Cohort([MTSample(s.id, v, s.mask, s.label) for s, v in zip(cohort.samples, values)],
                  cohort.attribute_names, cohort.window_length)


@pytest.fixture(scope="session")
def poisoned():
    """``poisoned(cohort, data, label)``: the cohort with values drawn by hypothesis's
    ``data`` from [-1e300, 1e300] under every masked cell."""
    return _poisoned
