"""The kernel module has one implementation per kernel name."""

import tracemalloc

import numpy as np

from lhdopt import RngStream, _kernels, maxpro_psi, phi_p, random_lhd


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
