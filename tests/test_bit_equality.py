"""Bit-equality of the population-method fast paths with their reference forms.

The pair-indexed full kernels, the position-indexed ``match_swaps`` and the
list-based ``permutation`` replace slower expressions of the same arithmetic
and the same draws.  The reference forms are kept here, and every check is
exact (``==``, not a tolerance): seeded runs must not move by a single bit.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lhdopt import _kernels
from lhdopt.rng import permutation
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


N2K1 = np.array([[2], [1]], dtype=np.int64)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@SETTINGS
@given(swap_cases())
def test_match_swaps_equals_reference(case):
    column, target, count, seed = case
    gen_new = np.random.default_rng(seed)
    gen_ref = np.random.default_rng(seed)
    got = match_swaps(column, target, count, gen_new)
    want = ref_match_swaps(column, target, count, gen_ref)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    # the same draws were made: both generators are in the same state
    assert gen_new.random() == gen_ref.random()


@SETTINGS
@given(st.integers(1, 80), st.integers(0, 2**32 - 1))
def test_permutation_equals_reference(n, seed):
    gen_new = np.random.default_rng(seed)
    gen_ref = np.random.default_rng(seed)
    got = permutation(gen_new, n)
    want = ref_permutation(gen_ref, n)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert gen_new.random() == gen_ref.random()


@SETTINGS
@given(designs(), st.sampled_from((1.0, 15.0, 50.0, 200.0)), st.sampled_from((1, 2)))
@example(N2K1, 15.0, 1)
@example(N2K1, 200.0, 2)
def test_phi_kernels_equal_reference(X, p, q):
    assert _kernels.phi_sum_np(X, p, q) == ref_phi_sum(X, p, q)
    assert _kernels.phi_stable_np(X, p, q) == ref_phi_stable(X, p, q)


@SETTINGS
@given(st.one_of(designs(), designs(lhd=False)))
@example(N2K1)
@example(np.array([[1, 1], [1, 2]], dtype=np.int64))
def test_maxpro_sum_equals_reference(X):
    assert _kernels.maxpro_sum_np(X) == ref_maxpro_sum(X)


def test_pair_indices_cached_and_read_only():
    for m in (1, 2, 7):
        a, b = _kernels.pair_indices(m)
        ra, rb = np.triu_indices(m, k=1)
        assert np.array_equal(a, ra) and np.array_equal(b, rb)
        assert not a.flags.writeable and not b.flags.writeable
        assert _kernels.pair_indices(m)[0] is a
