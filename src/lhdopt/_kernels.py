"""Hot numeric kernels: one NumPy implementation each.

The metaheuristic optimizers spend almost all their time in the pair-distance
and projection sums below.  With one implementation per kernel, a seeded run
gives the same bits on every install.  Callers go through the module
attributes (``_kernels.phi_delta(...)``), so a profiler can wrap the names in
``IMPLEMENTATIONS``.

The full-design kernels reduce the C(n,2) x k gaps ``X[a] - X[b]`` over the
row pairs a < b of ``pair_indices(n)``, so no n x n x k tensor is built.  All
kernels take the design as an int64 array of levels 1..n and treat a "swap"
as exchanging rows ``i`` and ``j`` within column ``col``.  The O(n) delta
kernels read the per-pair state that ``criteria.Evaluator`` caches between
moves (``gap_power_sums`` for phi_p, ``gap_products`` for maxpro) and the
swapped column, all taken *before* the swap.
"""

from __future__ import annotations

import functools

import numpy as np


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


def dist_matrix(X: np.ndarray, q: int) -> np.ndarray:
    """Full n x n inter-row distance matrix, d_ij = (sum_l |x_il-x_jl|^q)^(1/q)."""
    S = gap_power_sums(X, q)
    return S if q == 1 else np.sqrt(S)


def phi_sum(X: np.ndarray, p: float, q: int) -> float:
    """Sum over row pairs of d_ij^(-p)."""
    return float((_pair_distances(X, q) ** (-p)).sum())


def phi_stable(X: np.ndarray, p: float, q: int) -> float:
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


def phi_delta(S: np.ndarray, X: np.ndarray, col: int, i: int, j: int, p: float,
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


def maxpro_sum(X: np.ndarray) -> float:
    """Sum over row pairs of 1 / prod_l (x_il - x_jl)^2; -1.0 if a gap is zero."""
    diff = _pair_gaps(X)
    pairs = (diff * diff).prod(axis=1)
    if np.any(pairs == 0.0):
        return -1.0
    return float((1.0 / pairs).sum())


def maxpro_delta(P: np.ndarray, X: np.ndarray, col: int, i: int, j: int,
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


def warm_up() -> None:
    """Prepare the kernels before timed work: a no-op, since NumPy kernels
    need no compilation and build their cached index arrays on first use."""


IMPLEMENTATIONS = {
    "numpy": {
        "dist_matrix": dist_matrix,
        "phi_sum": phi_sum,
        "phi_stable": phi_stable,
        "phi_delta": phi_delta,
        "maxpro_sum": maxpro_sum,
        "maxpro_delta": maxpro_delta,
    }
}

ACTIVE = "numpy"
