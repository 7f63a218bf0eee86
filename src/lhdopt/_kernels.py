"""Hot numeric kernels: one NumPy implementation each.

The metaheuristic optimizers spend almost all their time in the pair-distance
and projection sums below.  With one implementation per kernel, a seeded run
gives the same bits on every install.  Callers go through the module
attributes (``_kernels.phi_delta(...)``), so a profiler can wrap the names in
``IMPLEMENTATIONS``.

Every row-pair gap is an int64 difference, gathered for the full design in
one place, ``_pair_gap_blocks``, in k x m blocks over the pairs a < b of
``pair_indices(n)``, and each block is reduced over its k rows: into exact
int64 sums of |gap|^q (``pair_gap_sums``) or into squared-gap products
(``_gap_products``, which ``reciprocal_rows`` shares).  The annealer states
of ``criteria.Evaluator`` scatter these pair vectors (or their reciprocals)
into n x n matrices (``pair_matrix``) that the O(n) delta kernels read.  The
delta kernels take one column of levels 1..n before the swap,
``reciprocal_rows`` the k x n transposed design and the others the n x k
int64 design, of n >= 2 rows and k (max - min)^q < 2^63, so no gap sum wraps
(``design.as_gap_design``); a "swap" exchanges rows ``i`` and ``j`` within
column ``col``.

The phi_p pair distances are exact integers (L1 for q=1, squared L2 for
q=2), so ``phi_delta`` reads the pair terms from a weight table
``W[d] = (d_ref/d)^e`` (``phi_weights``, up to 5/4 of the largest live
distance; with ``d_ref`` near the smallest no p underflows), and their
changes under a swap from the (n+1) x (n+1) level table
``L[u, v] = |u - v|^q`` (``level_table``): row i trades ``L[x_i, x_l]``
for ``L[x_j, x_l]`` against each row l, one subtraction of two table rows
and one gather by the column.  The maxpro state keeps the reciprocal pair
products ``R`` and a table ``G[u, v] = (u - v)^2``, so ``maxpro_delta``
scales rows i, j of ``R`` by one ratio vector of two ``G`` rows, and a
commit rebuilds them exactly (``reciprocal_rows``).  ``phi_delta`` returns
the change of one running pair sum and ``maxpro_delta`` the new value of
another; both follow one drift policy (``criteria._PairSum``), and the
evaluator is tested to agree with ``phi_stable`` to 1e-10 for
1 <= p <= 400 and with ``maxpro_sum`` to 1e-10.  ``phi_sum`` is the plain
sum of d^-p, which underflows at large p; nothing in the library calls it.
"""

from __future__ import annotations

import functools
import math

import numpy as np


# gap bytes per block: 1 MiB blocks ran twice as slow at 200x10 and 500x50
_PAIR_BLOCK_BYTES = 2**19


@functools.lru_cache(maxsize=32)
def pair_indices(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(m, k=1)``: the index pairs a < b of m items,
    built once per m (row pairs of a design, or column pairs of a Gram matrix)."""
    a, b = np.triu_indices(m, k=1)
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


def _pair_gap_blocks(XT: np.ndarray):
    """The gaps ``XT[:, a] - XT[:, b]`` of the transposed design ``XT`` over
    the row pairs of ``pair_indices``, in order, in k x m blocks."""
    a, b = pair_indices(XT.shape[1])
    step = max(1, _PAIR_BLOCK_BYTES // (8 * XT.shape[0]))
    for lo in range(0, a.size, step):
        g = XT.take(a[lo:lo + step], axis=1)
        g -= XT.take(b[lo:lo + step], axis=1)
        yield g


def pair_gap_sums(X: np.ndarray, q: int) -> np.ndarray:
    """Exact int64 sums over l of |x_al - x_bl|^q for the row pairs a < b,
    in ``pair_indices`` order: L1 distances for q=1, squared L2 for q=2."""
    return np.concatenate([(np.abs(g, out=g) if q == 1 else np.square(g, out=g)).sum(axis=0)
                           for g in _pair_gap_blocks(X.T)])


def _gap_products(d: np.ndarray) -> np.ndarray:
    """Products over axis 0 (l = 0..k-1) of the int64 gaps ``d`` squared in float64."""
    return np.multiply.reduce(np.square(d, dtype=np.float64), axis=0)


def pair_gap_products(X: np.ndarray) -> np.ndarray:
    """``_gap_products`` of the row pairs of the int64 design ``X``, in ``pair_indices`` order."""
    return np.concatenate([_gap_products(g) for g in _pair_gap_blocks(X.T)])


def reciprocal_rows(XT: np.ndarray, i: int, j: int) -> np.ndarray:
    """1 / prod_l (x_rl - x_sl)^2 (``_gap_products``) of the transposed int64
    design ``XT`` for r in (i, j) and every s; 0 at s == r."""
    P = _gap_products(XT.take((i, j), axis=1)[:, :, None] - XT[:, None, :])
    P[0, i] = P[1, j] = math.inf
    return np.divide(1.0, P, out=P)


def pair_matrix(v: np.ndarray, n: int) -> np.ndarray:
    """The symmetric n x n matrix, zero on the diagonal, that holds the
    pair vector ``v`` (``pair_indices`` order) at (a, b) and (b, a)."""
    M = np.zeros((n, n), dtype=v.dtype)
    a, b = pair_indices(n)
    M[a, b] = M[b, a] = v
    return M


def pair_distances(X: np.ndarray, q: int) -> np.ndarray:
    """float64 pair distances, in ``pair_indices`` order, from exact int64 sums."""
    d = pair_gap_sums(X, q).astype(np.float64)
    return d if q == 1 else np.sqrt(d, out=d)


def dist_matrix(X: np.ndarray, q: int) -> np.ndarray:
    """Full n x n inter-row distance matrix, d_ij = (sum_l |x_il-x_jl|^q)^(1/q)."""
    return pair_matrix(pair_distances(X, q), X.shape[0])


def phi_sum(X: np.ndarray, p: float, q: int) -> float:
    """Sum over row pairs of d_ij^(-p)."""
    return float((pair_distances(X, q) ** (-p)).sum())


def phi_stable(X: np.ndarray, p: float, q: int) -> float:
    """phi_p with the smallest distance factored out so large p cannot underflow;
    ``inf`` when two rows are equal."""
    d = pair_distances(X, q)
    dmin = d.min()
    if dmin == 0.0:
        return math.inf
    s = ((dmin / d) ** p).sum()
    return float(s ** (1.0 / p) / dmin)


def phi_weights(size: int, dref: int, e: float) -> np.ndarray:
    """Weight table W[d] = (dref/d)^e for the integer distances d < size.

    ``W[0]`` is 0.0, the weight of the zero diagonal of the pair matrix of
    ``pair_gap_sums``.
    Weights that would exceed 2^900 (distances far below ``dref``) are capped
    there, so the table holds no ``inf`` and a weighted count sum cannot
    overflow or meet ``0 * inf``.
    """
    W = np.arange(size, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):  # in place: no table-sized temporary
        np.divide(dref, W, out=W)
        W **= e
    W[0] = 0.0
    return np.minimum(W, 2.0 ** 900, out=W)


_ROW_SIGNS = np.array([[1], [-1]], dtype=np.int64)


def level_table(n: int, q: int) -> np.ndarray:
    """Read-only (n+1) x (n+1) int64 table ``L[u, v] = |u - v|^q`` of the
    gap terms between the levels 0..n of one column."""
    u = np.arange(n + 1, dtype=np.int64)
    L = np.abs(u[:, None] - u) ** q
    L.setflags(write=False)
    return L


def phi_delta(S: np.ndarray, W: np.ndarray, L: np.ndarray, x: np.ndarray,
              i: int, j: int) -> tuple[float, np.ndarray]:
    """Change of the weighted pair sum when rows i, j swap their entries of
    the column ``x``, and rows i, j of ``S`` after the swap.

    ``S`` is the int64 ``pair_matrix`` of the ``pair_gap_sums`` of the design
    before the swap, ``W`` a ``phi_weights`` table and ``L`` the
    ``level_table`` of the design's q, which ``x``, a column of levels 1..n,
    indexes.  Against each other row l, row i trades |x_i - x_l|^q for
    |x_j - x_l|^q, a change ``delta[l]`` read off rows x_j and x_i of ``L``,
    and row j the reverse.
    ``delta`` is set to 0 at i and j, and ``W[0]`` weights the diagonal, so
    the gather over both full rows adds exactly 0 for every pair the swap
    leaves unchanged; no mask is needed.  A new distance past the end of
    ``W`` reads its last entry, so a ``NaN`` there makes the change ``NaN``.
    """
    delta = np.subtract(L[x[j]], L[x[i]]).take(x)
    delta[i] = 0
    delta[j] = 0
    rows = S.take((i, j), axis=0)
    new = rows + delta * _ROW_SIGNS
    g = W.take(new, mode="clip")
    g -= W.take(rows)
    return float(np.add.reduce(g, axis=None)), new


def maxpro_sum(X: np.ndarray) -> float:
    """Sum over row pairs of 1 / ``pair_gap_products``; -1.0 if a gap is
    zero, ``inf`` if a pair product overflows float64."""
    pairs = pair_gap_products(X)
    if pairs.min() == 0.0:
        return -1.0
    if pairs.max() == math.inf:
        return math.inf
    return float((1.0 / pairs).sum())


def maxpro_delta(R: np.ndarray, G: np.ndarray, x: np.ndarray, i: int, j: int, s: float) -> float:
    """New maxpro pair sum ``s`` after rows i, j swap their entries of the
    column ``x`` (int64 levels 1..n).

    ``R`` holds the reciprocal pair products before the swap (zero diagonal),
    ``G`` the squared level gaps ``(u - v)^2`` with a diagonal of 1.  Against
    row l, the swap multiplies ``R[i, l]`` by ``G[x_i, x_l] / G[x_j, x_l]``
    and ``R[j, l]`` by its inverse; both ratios are 1 at (i, j) and (j, i),
    the pair it leaves unchanged, and the zero diagonal drops (i, i) and
    (j, j), so one sum over both full rows gives the change of ``s``.
    """
    g = G.take(x.take((i, j)), axis=0).take(x, axis=1)
    ratio = g / g[::-1]
    ratio[0, j] = ratio[1, i] = 1.0
    rows = R.take((i, j), axis=0)
    new = rows * ratio
    new -= rows
    return s + float(np.add.reduce(new, axis=None))


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
