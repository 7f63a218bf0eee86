"""Bit-equality of the fast paths with their reference forms.

The pair-indexed full kernels, the list-based ``match_swaps`` and
``permutation`` (drawing from ``rng.Draws``, their references
from NumPy's ``Generator``), the pair-gathered ``pair_gap_sums`` and the
annealer states' phi_p, maxpro and correlation updates replace slower
expressions of the same arithmetic and the same draws.  The reference
forms are kept here, and every check is exact (``==``, not a tolerance):
seeded runs must not move by a single bit.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lhdopt import CriterionSpec, _kernels, random_lhd
from lhdopt.criteria import _CorrState, _MaxproState, _PhiState
from lhdopt.rng import RngStream, permutation
from lhdopt.search import match_swaps

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# reference forms
# ---------------------------------------------------------------------------


def ref_match_swaps(column, target, count, gen):
    """Two O(n) scans per swap: the disagreeing positions and the value's row."""
    col = np.array(column, dtype=np.int64)
    for _ in range(count):
        diff = np.nonzero(col != target)[0]
        if len(diff) == 0:
            break
        r = int(diff[gen.integers(len(diff))])
        want = target[r]
        r2 = int(np.nonzero(col == want)[0][0])
        col[r], col[r2] = col[r2], col[r]
    return col


def ref_permutation(gen, n):
    """Descending Fisher-Yates on an int64 array."""
    a = np.arange(1, n + 1, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = int(gen.integers(0, i + 1))
        a[i], a[j] = a[j], a[i]
    return a


def ref_dist_matrix(X, q):
    """n x n distances from the full n x n x k gap tensor."""
    diff = np.abs(X[:, None, :] - X[None, :, :]).astype(np.float64)
    if q == 1:
        return diff.sum(axis=2)
    return np.sqrt((diff * diff).sum(axis=2))


def ref_phi_sum(X, p, q):
    n = X.shape[0]
    D = ref_dist_matrix(X, q)
    iu = np.triu_indices(n, k=1)
    return float((D[iu] ** (-p)).sum())


def ref_phi_stable(X, p, q):
    n = X.shape[0]
    D = ref_dist_matrix(X, q)
    d = D[np.triu_indices(n, k=1)]
    dmin = d.min()
    s = ((dmin / d) ** p).sum()
    return float(s ** (1.0 / p) / dmin)


def ref_maxpro_sum(X):
    n = X.shape[0]
    diff = (X[:, None, :] - X[None, :, :]).astype(np.float64)
    prod = (diff * diff).prod(axis=2)
    pairs = prod[np.triu_indices(n, k=1)]
    if np.any(pairs == 0.0):
        return -1.0
    return float((1.0 / pairs).sum())


def ref_gap_power_sums(X, q):
    """From the full n x n x k gap tensor."""
    diff = np.abs(X[:, None, :] - X[None, :, :])
    return diff.sum(axis=2) if q == 1 else (diff * diff).sum(axis=2)


def ref_gap_products(A, X):
    """Row-major products over the last axis of an m x n x k tensor."""
    diff = (A[:, None, :] - X[None, :, :]).astype(np.float64)
    return (diff * diff).prod(axis=2)


def ref_phi_delta(S, W, x, i, j, q):
    """The distance changes from five ufuncs on the column, the rows of
    ``S`` by fancy indexing."""
    xi, xj = x[i], x[j]
    if q == 1:
        delta = np.abs(x - xj) - np.abs(x - xi)
    else:
        delta = (xi - xj) * (2 * x - (xi + xj))  # (x - xj)^2 - (x - xi)^2
    delta[i] = 0
    delta[j] = 0
    rows = S[[i, j]]
    new = rows + delta * np.array([[1], [-1]], dtype=np.int64)
    return float((W.take(new, mode="clip") - W[rows]).sum()), new


def ref_reciprocals(X):
    """1 / ``ref_gap_products`` with a zero diagonal."""
    with np.errstate(divide="ignore"):
        R = 1.0 / ref_gap_products(X, X)
    np.fill_diagonal(R, 0.0)
    return R


def ref_maxpro_new_sum(R, X, col, i, j, s):
    """Two 1-D rows of ``R`` times explicit ratio vectors, the ratios masked
    to 1 outside the pairs the swap changes, summed as one 2n vector."""
    n = X.shape[0]
    mask = np.ones(n, dtype=bool)
    mask[i] = mask[j] = False
    x = X[:, col].astype(np.float64)
    gi2 = (x[i] - x) ** 2
    gj2 = (x[j] - x) ** 2
    ratio_i, ratio_j = np.ones(n), np.ones(n)
    ratio_i[mask] = gi2[mask] / gj2[mask]
    ratio_j[mask] = gj2[mask] / gi2[mask]
    change = np.concatenate([R[i] * ratio_i - R[i], R[j] * ratio_j - R[j]])
    return s + float(change.sum())


def ref_maxpro_delta(P, X, col, i, j, s):
    """The pair-product form: two masked 1-D rows of ``P``, one 1-D sum each."""
    mask = np.ones(X.shape[0], dtype=bool)
    mask[i] = mask[j] = False
    x = X[:, col]
    gcol = x[mask]
    prod_i = P[i, mask]
    prod_j = P[j, mask]
    gi2 = (x[i] - gcol).astype(np.float64) ** 2
    gj2 = (x[j] - gcol).astype(np.float64) ** 2
    new_i = prod_i / gi2 * gj2
    new_j = prod_j / gj2 * gi2
    s -= (1.0 / prod_i).sum() + (1.0 / prod_j).sum()
    s += (1.0 / new_i).sum() + (1.0 / new_j).sum()
    return float(s)


def ref_corr_stats(X, col, i, j):
    """(avg |r|, max |r|, avg r^2) after the swap, from a k x k Gram copy."""
    n, k = X.shape
    if k < 2:
        return 0.0, 0.0, 0.0
    Z = 2 * X - (n + 1)
    G = Z.T @ Z
    dz = int(Z[j, col]) - int(Z[i, col])
    row = G[col] + dz * (Z[i] - Z[j])
    row[col] = G[col, col]
    G = G.copy()
    G[col, :] = row
    G[:, col] = row
    r = G[np.triu_indices(k, k=1)].astype(np.float64) / float(n * (n * n - 1) // 3)
    a = np.abs(r)
    return float(a.mean()), float(a.max()), float((r * r).mean())


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def swap_cases(draw):
    n = draw(st.integers(2, 60))
    target = np.array(draw(st.permutations(range(1, n + 1))), dtype=np.int64)
    if draw(st.booleans()):
        column = target.copy()
    else:
        column = np.array(draw(st.permutations(range(1, n + 1))), dtype=np.int64)
    count = draw(st.integers(0, n + 2))
    seed = draw(st.integers(0, 2**32 - 1))
    return column, target, count, seed


@st.composite
def designs(draw, lhd=True):
    n = draw(st.integers(2, 30))
    k = draw(st.integers(1, 8))
    if lhd:
        cols = [draw(st.permutations(range(1, n + 1))) for _ in range(k)]
    else:  # levels may repeat, so some pair gap can be zero
        cols = [draw(st.lists(st.integers(1, n), min_size=n, max_size=n)) for _ in range(k)]
    return np.ascontiguousarray(np.column_stack(cols), dtype=np.int64)


@st.composite
def swaps(draw):
    """An LHD with n in 3..80 and k in 1..9, and a swap (i == j allowed)."""
    n = draw(st.integers(3, 80))
    k = draw(st.integers(1, 9))
    X = np.column_stack([draw(st.permutations(range(1, n + 1))) for _ in range(k)])
    col = draw(st.integers(0, k - 1))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    return np.ascontiguousarray(X, dtype=np.int64), col, i, j


@st.composite
def phi_streams(draw):
    """An LHD with n in 2..200 and k in 1..6, a q and a stream of swaps
    (col, i, j, commit), i == j allowed."""
    n = draw(st.integers(2, 200))
    k = draw(st.integers(1, 6))
    X = random_lhd(n, k, RngStream(draw(st.integers(0, 2**32 - 1))))
    move = st.tuples(st.integers(0, k - 1), st.integers(0, n - 1), st.integers(0, n - 1),
                     st.booleans())
    return X, draw(st.sampled_from((1, 2))), draw(st.lists(move, min_size=1, max_size=40))


N2K1 = np.array([[2], [1]], dtype=np.int64)
# the longest distance is 3 (q=1) or 5 (q=2), and W ends in a NaN just past
# 5/4 of it; swapping rows 1, 2 of either column makes a distance of 4 or 8,
# which reads that NaN
PAST_W = np.array([[3, 1], [1, 2], [2, 3]], dtype=np.int64)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@SETTINGS
@given(swap_cases())
def test_match_swaps_equals_reference(case):
    column, target, count, seed = case
    draws = RngStream(seed).draws()
    gen_ref = RngStream(seed).generator()
    cur, where = column.tolist(), [0] * (len(column) + 1)
    for r, v in enumerate(cur):
        where[v] = r
    match_swaps(cur, where, target.tolist(), count, draws)
    got = np.array(cur, dtype=np.int64)
    want = ref_match_swaps(column, target, count, gen_ref)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert all(where[v] == r for r, v in enumerate(cur))
    # the same draws were made: both sources are at the same place
    assert draws.below(1000) == gen_ref.integers(1000)
    assert draws.random() == gen_ref.random()


@SETTINGS
@given(st.integers(1, 80), st.integers(0, 2**32 - 1))
def test_permutation_equals_reference(n, seed):
    draws = RngStream(seed).draws()
    gen_ref = RngStream(seed).generator()
    got = permutation(draws, n)
    want = ref_permutation(gen_ref, n)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert draws.below(1000) == gen_ref.integers(1000)
    assert draws.random() == gen_ref.random()


@SETTINGS
@given(designs(), st.sampled_from((1.0, 2.0, 15.0, 50.0, 200.0, 400.0)), st.sampled_from((1, 2)))
@example(N2K1, 15.0, 1)
@example(N2K1, 200.0, 2)
def test_phi_kernels_equal_reference(X, p, q):
    assert _kernels.phi_sum(X, p, q) == ref_phi_sum(X, p, q)
    assert _kernels.phi_stable(X, p, q) == ref_phi_stable(X, p, q)


@SETTINGS
@given(st.one_of(designs(), designs(lhd=False)))
@example(N2K1)
@example(np.array([[1, 1], [1, 2]], dtype=np.int64))
def test_maxpro_sum_equals_reference(X):
    assert _kernels.maxpro_sum(X) == ref_maxpro_sum(X)


def test_maxpro_sum_in_blocks_equals_reference():
    # 200 x 30 fills its 19900 pair products in ten blocks of 2184 pairs
    for seed in (1, 3):
        X = random_lhd(200, 30, RngStream(seed))
        assert _kernels.maxpro_sum(X) == ref_maxpro_sum(X)


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("p", [1.0, 2.0, 15.0, 50.0, 200.0, 400.0])
def test_phi_stable_in_blocks_equals_reference(p, q):
    # ten blocks of 200 x 30 distances, then one sum over all 19900 pairs
    X = random_lhd(200, 30, RngStream(3))
    assert _kernels.phi_stable(X, p, q) == ref_phi_stable(X, p, q)


def test_pair_indices_cached_and_read_only():
    for m in (1, 2, 7):
        a, b = _kernels.pair_indices(m)
        ra, rb = np.triu_indices(m, k=1)
        assert np.array_equal(a, ra) and np.array_equal(b, rb)
        assert not a.flags.writeable and not b.flags.writeable
        assert _kernels.pair_indices(m)[0] is a


@SETTINGS
@given(designs(), st.sampled_from((1, 2)))
def test_gap_power_sums_equal_reference(X, q):
    # the pair-distance matrix ``_PhiState`` starts from
    got = _kernels.pair_matrix(_kernels.pair_gap_sums(X, q), X.shape[0])
    assert got.dtype == np.int64
    assert np.array_equal(got, ref_gap_power_sums(X, q))


def _phi_stream_against_reference(X, q, moves):
    """Check every proposal of ``moves`` against ``ref_phi_delta`` and
    return how many read the ``NaN`` past the end of ``W``."""
    X = X.copy()
    n = X.shape[0]
    state = _PhiState(X, CriterionSpec("phi_p", q=q))
    u = np.arange(n + 1)
    assert state.L.dtype == np.int64 and not state.L.flags.writeable
    assert np.array_equal(state.L, np.abs(u[:, None] - u) ** q)
    assert not state.L.diagonal().any()
    past_end = 0
    for col, i, j, keep in moves:
        want, new = ref_phi_delta(state.S, state.W, X[:, col], i, j, q)
        got, rows = _kernels.phi_delta(state.S, state.W, state.L, X[:, col], i, j)
        assert got == want or (math.isnan(got) and math.isnan(want))
        assert rows.dtype == np.int64 and np.array_equal(rows, new)
        past_end += math.isnan(want)
        s = state.s
        state.propose(X, col, i, j)
        assert state.new == s + want or (math.isnan(want) and math.isnan(state.new))
        assert np.array_equal(state.rows, new)
        if keep:
            X[[i, j], col] = X[[j, i], col]
            state.commit(X, col, i, j)
    assert np.array_equal(state.S, ref_gap_power_sums(X, q))
    return past_end


@SETTINGS
@given(phi_streams())
@example((PAST_W, 1, [(0, 1, 2, True), (1, 0, 2, False)]))
@example((PAST_W, 2, [(1, 1, 2, False)]))
def test_phi_state_equals_reference(case):
    _phi_stream_against_reference(*case)


@pytest.mark.parametrize("q", [1, 2])
def test_phi_delta_past_table_end_equals_reference(q):
    assert _phi_stream_against_reference(PAST_W, q, [(0, 1, 2, False)]) == 1


@SETTINGS
@given(swaps())
def test_maxpro_state_equals_reference(case):
    X, col, i, j = case
    n = X.shape[0]
    state = _MaxproState(X, CriterionSpec("maxpro"))
    assert np.array_equal(state.R, ref_reciprocals(X))
    u = np.arange(n + 1)
    assert not state.G.flags.writeable
    assert np.array_equal(state.G, (u[:, None] - u) ** 2 + np.eye(n + 1))
    want = ref_maxpro_new_sum(state.R, X, col, i, j, state.s)
    state.propose(X, col, i, j)
    assert state.new == want
    # the pair-product form agrees to rounding
    old = ref_maxpro_delta(ref_gap_products(X, X), X, col, i, j, state.s)
    assert state.new == pytest.approx(old, rel=1e-13, abs=0.0)
    # the commit of the swapped design rebuilds rows and columns i, j as a
    # fresh state holds them
    Y = X.copy()
    Y[[i, j], col] = Y[[j, i], col]
    state.commit(Y, col, i, j)
    assert np.array_equal(state.R, ref_reciprocals(Y))


@SETTINGS
@given(swaps())
def test_corr_state_equals_reference(case):
    X, col, i, j = case
    want = ref_corr_stats(X, col, i, j)
    specs = (CriterionSpec("avgcor"), CriterionSpec("maxcor"), CriterionSpec("combo", weight=0.5))
    for spec, value in zip(specs, want):
        if X.shape[1] >= 2 or spec.kind == "combo":  # combo reads avg r^2
            assert _CorrState(X, spec).propose(X, col, i, j) == value, spec.kind
