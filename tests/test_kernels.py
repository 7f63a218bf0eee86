"""The kernel module has one implementation per kernel name."""

import tracemalloc
import warnings

import numpy as np
import pytest

from lhdopt import RngStream, _kernels, maxpro_psi, phi_p, random_lhd
from lhdopt.errors import DegenerateCoordinateError


class TestFallbackPath:
    def test_numpy_implementations_always_present(self):
        assert set(_kernels.IMPLEMENTATIONS["numpy"]) == {
            "dist_matrix", "phi_sum", "phi_stable", "phi_delta",
            "maxpro_sum", "maxpro_delta",
        }

    def test_delta_kernels_shared_by_modes(self):
        for impl in _kernels.IMPLEMENTATIONS.values():
            assert impl["phi_delta"] is _kernels.phi_delta
            assert impl["maxpro_delta"] is _kernels.maxpro_delta

    def test_active_mode_consistent(self):
        assert _kernels.ACTIVE == "numpy"
        assert list(_kernels.IMPLEMENTATIONS) == ["numpy"]
        for name, fn in _kernels.IMPLEMENTATIONS["numpy"].items():
            assert getattr(_kernels, name) is fn

    def test_degenerate_flag(self):
        X = np.array([[1, 1], [1, 2]], dtype=np.int64)
        with pytest.raises(DegenerateCoordinateError, match="share a level"):
            _kernels.maxpro_sum(X)

    def test_a_zero_gap_after_an_overflow_is_degenerate(self):
        # 10 gaps of 1e17 overflow the product before the zero gap meets it:
        # 0 * inf is NaN, and still a shared level
        X = np.zeros((2, 11), dtype=np.int64)
        X[0, :10] = 10**17
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateCoordinateError):
                _kernels.maxpro_sum(X)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_maxpro_memory_is_bounded():
    # the C(n,2) x k gaps of a 500 x 50 design would take 48 MiB at once
    X = random_lhd(500, 50, RngStream(1))
    assert _peak_bytes(maxpro_psi, X) < 16 * 2**20


def test_phi_p_memory_is_bounded():
    X = random_lhd(500, 50, RngStream(1))
    for q in (1, 2):
        assert _peak_bytes(phi_p, X, 15, q) < 16 * 2**20
