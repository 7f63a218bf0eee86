"""Hot numeric kernels, JIT-compiled with a pure-NumPy fallback.

The metaheuristic optimizers spend almost all their time in the pair-distance
and projection sums below.  The full-design sums carry ``numba.njit``
implementations.  Setting the environment variable ``LHDOPT_DISABLE_NUMBA=1``
(or running without numba installed) selects the vectorized NumPy path
instead; both paths implement identical arithmetic, and
``benchmarks/kernel_speed.py`` compares them.

Results of the two paths agree to floating-point roundoff but are not
guaranteed bit-identical (summation order differs), so seeded runs are
reproducible within a mode, not across modes.

The full-design NumPy kernels are pair-indexed: they gather the C(n,2) x k
gaps ``X[a] - X[b]`` over the row pairs a < b of ``pair_indices(n)`` and
reduce each pair's length-k row, so no n x n x k tensor is built and no
index arrays are rebuilt per call.

All kernels take the design as an int64 array of levels 1..n and treat a
"swap" as exchanging rows ``i`` and ``j`` within column ``col``.  The delta
kernels read the per-pair state that ``criteria.Evaluator`` caches between
moves (``gap_power_sums`` for phi_p, ``gap_products`` for maxpro) together
with the column being swapped, all taken *before* the swap.  They cost O(n)
and are the same NumPy functions in both modes.
"""

from __future__ import annotations

import functools
import os

import numpy as np

_FLAG = os.environ.get("LHDOPT_DISABLE_NUMBA", "").strip().lower()
NUMBA_DISABLED = _FLAG not in ("", "0", "false")

try:
    if NUMBA_DISABLED:
        raise ImportError("numba disabled via LHDOPT_DISABLE_NUMBA")
    from numba import njit

    NUMBA_ENABLED = True
except ImportError:
    NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# NumPy implementations (always available; fallback path)
# ---------------------------------------------------------------------------

def gap_power_sums(X: np.ndarray, q: int) -> np.ndarray:
    """n x n matrix of sum_l |x_il - x_jl|^q: the L1 distance for q=1, the
    squared L2 distance for q=2.  Entries are exact integers in float64."""
    diff = np.abs(X[:, None, :] - X[None, :, :]).astype(np.float64)
    if q == 1:
        return diff.sum(axis=2)
    return (diff * diff).sum(axis=2)


def gap_products(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Products prod_l (a_rl - x_sl)^2 for every row r of A and row s of X."""
    diff = (A[:, None, :] - X[None, :, :]).astype(np.float64)
    return (diff * diff).prod(axis=2)


@functools.lru_cache(maxsize=32)
def pair_indices(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(m, k=1)``: the index pairs a < b of m items,
    built once per m (row pairs of a design, or column pairs of a Gram matrix)."""
    a, b = np.triu_indices(m, k=1)
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


def _pair_gaps(X: np.ndarray) -> np.ndarray:
    """C(n,2) x k float64 gaps x_a - x_b over the row pairs a < b."""
    a, b = pair_indices(X.shape[0])
    return (X[a] - X[b]).astype(np.float64)


def _pair_distances(X: np.ndarray, q: int) -> np.ndarray:
    """Distances d_ab over the row pairs a < b, in ``pair_indices`` order."""
    diff = _pair_gaps(X)
    if q == 1:
        return np.abs(diff).sum(axis=1)
    return np.sqrt((diff * diff).sum(axis=1))


def dist_matrix_np(X: np.ndarray, q: int) -> np.ndarray:
    """Full n x n inter-row distance matrix, d_ij = (sum_l |x_il-x_jl|^q)^(1/q)."""
    S = gap_power_sums(X, q)
    return S if q == 1 else np.sqrt(S)


def phi_sum_np(X: np.ndarray, p: float, q: int) -> float:
    """Sum over row pairs of d_ij^(-p)."""
    return float((_pair_distances(X, q) ** (-p)).sum())


def phi_stable_np(X: np.ndarray, p: float, q: int) -> float:
    """phi_p with the smallest distance factored out so large p cannot underflow."""
    d = _pair_distances(X, q)
    dmin = d.min()
    s = ((dmin / d) ** p).sum()
    return float(s ** (1.0 / p) / dmin)


def _others(n: int, i: int, j: int) -> np.ndarray:
    """Mask of the rows other than i and j."""
    mask = np.ones(n, dtype=bool)
    mask[i] = False
    mask[j] = False
    return mask


def phi_delta_np(S: np.ndarray, X: np.ndarray, col: int, i: int, j: int, p: float,
                 q: int, sp: float) -> float:
    """New pair sum of d^(-p) after swapping rows i, j in column col.

    ``S`` is ``gap_power_sums(X, q)`` of the design before the swap.
    """
    mask = _others(X.shape[0], i, j)
    x = X[:, col]
    gcol = x[mask]
    gi = np.abs(x[i] - gcol).astype(np.float64)
    gj = np.abs(x[j] - gcol).astype(np.float64)
    s_il = S[i, mask]
    s_jl = S[j, mask]
    if q == 1:
        new_il = s_il - gi + gj
        new_jl = s_jl - gj + gi
        sp += (new_il ** (-p)).sum() + (new_jl ** (-p)).sum()
        sp -= (s_il ** (-p)).sum() + (s_jl ** (-p)).sum()
    else:
        new_il = s_il - gi * gi + gj * gj
        new_jl = s_jl - gj * gj + gi * gi
        hp = p / 2.0
        sp += (new_il ** (-hp)).sum() + (new_jl ** (-hp)).sum()
        sp -= (s_il ** (-hp)).sum() + (s_jl ** (-hp)).sum()
    return float(sp)


def maxpro_sum_np(X: np.ndarray) -> float:
    """Sum over row pairs of 1 / prod_l (x_il - x_jl)^2; -1.0 if a gap is zero."""
    diff = _pair_gaps(X)
    pairs = (diff * diff).prod(axis=1)
    if np.any(pairs == 0.0):
        return -1.0
    return float((1.0 / pairs).sum())


def maxpro_delta_np(P: np.ndarray, X: np.ndarray, col: int, i: int, j: int,
                    s: float) -> float:
    """New maxpro pair sum after swapping rows i, j in column col.

    ``P`` is ``gap_products(X, X)`` of the design before the swap.
    """
    mask = _others(X.shape[0], i, j)
    x = X[:, col]
    gcol = x[mask]
    prod_i = P[i, mask]
    prod_j = P[j, mask]
    gi2 = (x[i] - gcol).astype(np.float64) ** 2
    gj2 = (x[j] - gcol).astype(np.float64) ** 2
    # the swap moves the column-col factor between the two affected rows
    new_i = prod_i / gi2 * gj2
    new_j = prod_j / gj2 * gi2
    s -= (1.0 / prod_i).sum() + (1.0 / prod_j).sum()
    s += (1.0 / new_i).sum() + (1.0 / new_j).sum()
    return float(s)


# ---------------------------------------------------------------------------
# Numba implementations
# ---------------------------------------------------------------------------

if NUMBA_ENABLED:

    @njit(cache=True)
    def _dist_matrix_nb(X, q):
        n, k = X.shape
        D = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(i + 1, n):
                d = 0.0
                if q == 1:
                    for c in range(k):
                        d += abs(X[i, c] - X[j, c])
                else:
                    for c in range(k):
                        g = X[i, c] - X[j, c]
                        d += g * g
                    d = np.sqrt(d)
                D[i, j] = d
                D[j, i] = d
        return D

    @njit(cache=True)
    def _phi_sum_nb(X, p, q):
        n, k = X.shape
        s = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                d = 0.0
                if q == 1:
                    for c in range(k):
                        d += abs(X[i, c] - X[j, c])
                else:
                    for c in range(k):
                        g = X[i, c] - X[j, c]
                        d += g * g
                    d = np.sqrt(d)
                s += d ** (-p)
        return s

    @njit(cache=True)
    def _phi_stable_nb(X, p, q):
        n, k = X.shape
        m = n * (n - 1) // 2
        d = np.empty(m, dtype=np.float64)
        t = 0
        for i in range(n):
            for j in range(i + 1, n):
                v = 0.0
                if q == 1:
                    for c in range(k):
                        v += abs(X[i, c] - X[j, c])
                else:
                    for c in range(k):
                        g = X[i, c] - X[j, c]
                        v += g * g
                    v = np.sqrt(v)
                d[t] = v
                t += 1
        dmin = d[0]
        for t in range(1, m):
            if d[t] < dmin:
                dmin = d[t]
        s = 0.0
        for t in range(m):
            s += (dmin / d[t]) ** p
        return s ** (1.0 / p) / dmin

    @njit(cache=True)
    def _maxpro_sum_nb(X):
        n, k = X.shape
        s = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                prod = 1.0
                for c in range(k):
                    g = X[i, c] - X[j, c]
                    prod *= g * g
                if prod == 0.0:
                    return -1.0
                s += 1.0 / prod
        return s

    dist_matrix = _dist_matrix_nb
    phi_sum = _phi_sum_nb
    phi_stable = _phi_stable_nb
    maxpro_sum = _maxpro_sum_nb
else:
    dist_matrix = dist_matrix_np
    phi_sum = phi_sum_np
    phi_stable = phi_stable_np
    maxpro_sum = maxpro_sum_np
# the delta kernels only read cached rows, so both modes share the NumPy ones
phi_delta = phi_delta_np
maxpro_delta = maxpro_delta_np


def warm_up() -> None:
    """Force JIT compilation of every kernel on a toy design."""
    X = np.array([[1, 2], [2, 1], [3, 3]], dtype=np.int64)
    for q in (1, 2):
        dist_matrix(X, q)
        phi_sum(X, 15.0, q)
        phi_stable(X, 15.0, q)
        phi_delta(gap_power_sums(X, q), X, 0, 0, 1, 15.0, q, 1.0)
    maxpro_sum(X)
    maxpro_delta(gap_products(X, X), X, 0, 0, 1, 1.0)


IMPLEMENTATIONS = {
    "numpy": {
        "dist_matrix": dist_matrix_np,
        "phi_sum": phi_sum_np,
        "phi_stable": phi_stable_np,
        "phi_delta": phi_delta_np,
        "maxpro_sum": maxpro_sum_np,
        "maxpro_delta": maxpro_delta_np,
    }
}
if NUMBA_ENABLED:
    IMPLEMENTATIONS["numba"] = {
        "dist_matrix": _dist_matrix_nb,
        "phi_sum": _phi_sum_nb,
        "phi_stable": _phi_stable_nb,
        "phi_delta": phi_delta_np,
        "maxpro_sum": _maxpro_sum_nb,
        "maxpro_delta": maxpro_delta_np,
    }

ACTIVE = "numba" if NUMBA_ENABLED else "numpy"
