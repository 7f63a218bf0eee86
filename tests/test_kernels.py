"""The JIT and NumPy kernel paths must implement the same arithmetic."""

import numpy as np
import pytest

from conftest import random_design
from lhdopt import _kernels


pairs = pytest.mark.parametrize("name", ["dist_matrix", "phi_sum", "phi_stable", "maxpro_sum"])


class TestFallbackPath:
    def test_numpy_implementations_always_present(self):
        assert set(_kernels.IMPLEMENTATIONS["numpy"]) == {
            "dist_matrix", "phi_sum", "phi_stable", "phi_delta",
            "maxpro_sum", "maxpro_delta",
        }

    def test_delta_kernels_shared_by_modes(self):
        for impl in _kernels.IMPLEMENTATIONS.values():
            assert impl["phi_delta"] is _kernels.phi_delta_np is _kernels.phi_delta
            assert impl["maxpro_delta"] is _kernels.maxpro_delta_np is _kernels.maxpro_delta

    def test_active_mode_consistent(self):
        if _kernels.NUMBA_ENABLED:
            assert _kernels.ACTIVE == "numba"
            assert "numba" in _kernels.IMPLEMENTATIONS
        else:
            assert _kernels.ACTIVE == "numpy"


@pytest.mark.skipif(not _kernels.NUMBA_ENABLED, reason="numba disabled")
class TestPathAgreement:
    @pairs
    def test_modes_agree(self, gen, name):
        nb = _kernels.IMPLEMENTATIONS["numba"][name]
        npy = _kernels.IMPLEMENTATIONS["numpy"][name]
        for _ in range(40):
            n = int(gen.integers(3, 15))
            k = int(gen.integers(1, 6))
            X = random_design(gen, n, k)
            q = int(gen.integers(1, 3))
            if name == "dist_matrix":
                a, b = nb(X, q), npy(X, q)
            elif name in ("phi_sum", "phi_stable"):
                a, b = nb(X, 15.0, q), npy(X, 15.0, q)
            else:
                a, b = nb(X), npy(X)
            assert np.allclose(a, b, rtol=1e-11, atol=0.0)

    def test_degenerate_flag_agrees(self):
        X = np.array([[1, 1], [1, 2]], dtype=np.int64)
        assert _kernels.IMPLEMENTATIONS["numba"]["maxpro_sum"](X) == -1.0
        assert _kernels.IMPLEMENTATIONS["numpy"]["maxpro_sum"](X) == -1.0
