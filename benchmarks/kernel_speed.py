#!/usr/bin/env python3
"""Compare the JIT-compiled kernels against the pure-NumPy fallback.

Times every hot kernel on a grid of design sizes and prints the speedup,
plus LaPSO's ``match_swaps`` step and an end-to-end annealing run in
whichever mode is active.  Run once normally and once with
LHDOPT_DISABLE_NUMBA=1 to see the end-to-end gap.
The delta kernels read the per-pair state an ``Evaluator`` caches and are
the same NumPy functions in both modes.

    PYTHONPATH=src python3 benchmarks/kernel_speed.py
"""

import time

import numpy as np

from lhdopt import CriterionSpec, OptimizerConfig, RngStream, random_lhd, sa_search
from lhdopt import _kernels
from lhdopt.search import match_swaps


def time_call(fn, *args, repeat=2000):
    fn(*args)  # warm (JIT compile / cache touch)
    t0 = time.perf_counter()
    for _ in range(repeat):
        fn(*args)
    return (time.perf_counter() - t0) / repeat


def bench_kernels():
    sizes = [(8, 3), (20, 5), (50, 8)]
    header = f"{'kernel':<14} {'n x k':<9} {'numpy':>12} {'numba':>12} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for n, k in sizes:
        X = np.array(random_lhd(n, k, RngStream(7)))
        calls = {
            "dist_matrix": (X, 1),
            "phi_sum": (X, 15.0, 1),
            "phi_stable": (X, 15.0, 1),
            "phi_delta": (_kernels.gap_power_sums(X, 1), X, 0, 0, 1, 15.0, 1, 1.0),
            "maxpro_sum": (X,),
            "maxpro_delta": (_kernels.gap_products(X, X), X, 0, 0, 1, 1.0),
        }
        for name, args in calls.items():
            t_np = time_call(_kernels.IMPLEMENTATIONS["numpy"][name], *args)
            if "numba" in _kernels.IMPLEMENTATIONS:
                t_nb = time_call(_kernels.IMPLEMENTATIONS["numba"][name], *args)
                ratio = f"{t_np / t_nb:8.1f}x"
                nb_str = f"{t_nb * 1e6:10.2f} us"
            else:
                ratio, nb_str = "      n/a", "       n/a"
            print(f"{name:<14} {n:>3}x{k:<5} {t_np * 1e6:10.2f} us {nb_str} {ratio}")
        print()


def bench_match_swaps():
    # LaPSO at 50x8 moves each column up to ceil(50/4) = 13 swaps toward a best
    n, count = 50, 13
    column = np.array(random_lhd(n, 1, RngStream(7, 0)))[:, 0]
    target = np.array(random_lhd(n, 1, RngStream(7, 1)))[:, 0]
    gen = RngStream(7, 2).generator()
    t = time_call(match_swaps, column, target, count, gen)
    print(f"{'match_swaps':<14} {f'n={n}':<9} {t * 1e6:10.2f} us  ({count} swaps per call)\n")


def bench_search():
    cfg = OptimizerConfig(algorithm="sa", max_evaluations=50000, seed=RngStream(3))
    t0 = time.perf_counter()
    r = sa_search(16, 5, CriterionSpec("phi_p"), cfg)
    dt = time.perf_counter() - t0
    print(f"sa 16x5, 50k evaluations [{_kernels.ACTIVE}]: {dt:.2f}s "
          f"({dt / 50000 * 1e6:.1f} us/eval), best phi_15 = {r.value:.5f}")


if __name__ == "__main__":
    print(f"active kernel path: {_kernels.ACTIVE}\n")
    bench_kernels()
    bench_match_swaps()
    bench_search()
