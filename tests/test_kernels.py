"""The kernel module has one implementation per kernel name."""

import tracemalloc

import numpy as np

from lhdopt import RngStream, _kernels, maxpro_psi, random_lhd


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
        assert _kernels.maxpro_sum(X) == -1.0


def test_maxpro_memory_is_bounded():
    # the C(n,2) x k gaps of a 500 x 50 design would take 48 MiB at once
    X = random_lhd(500, 50, RngStream(1))
    tracemalloc.start()
    try:
        maxpro_psi(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
