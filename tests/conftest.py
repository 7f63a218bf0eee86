import numpy as np
import pytest


@pytest.fixture
def gen():
    """Plain NumPy generator for test-local sampling (not the library RNG)."""
    return np.random.default_rng(20240801)


def random_design(gen, n, k):
    return np.column_stack([gen.permutation(n) + 1 for _ in range(k)]).astype(np.int64)
