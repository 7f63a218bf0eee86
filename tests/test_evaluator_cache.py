"""Property tests of the incremental evaluator's cached per-pair state.

A stream of proposals, some committed and some not (including the no-op
swap i == j), must leave the cached pair distances, gap products, centered
levels and Gram matrix exactly equal to those of a fresh evaluator on the
same design, and every proposal must agree with full evaluation, over phi_p
exponents 1..400 and both distances.
"""

from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhdopt import CriterionSpec, exchange
from lhdopt.criteria import _PHI_RESUM, KINDS, Evaluator, evaluate

CACHES = {
    "phi_p": ("_phi.S",),
    "maxpro": ("_P",),
    "avgcor": ("_Z", "_G"),
    "maxcor": ("_Z", "_G"),
    "combo": ("_phi.S", "_Z", "_G"),
}


@st.composite
def streams(draw):
    kind = draw(st.sampled_from(KINDS))
    q = draw(st.sampled_from((1, 2)))
    p = draw(st.one_of(st.sampled_from((1, 15, 50, 200, 400)), st.integers(1, 400)))
    n = draw(st.integers(2, 60))
    k = draw(st.integers(2 if kind in ("avgcor", "maxcor") else 1, 6))
    X = np.column_stack([draw(st.permutations(range(1, n + 1))) for _ in range(k)])
    spec = CriterionSpec(kind, p=p, q=q,
                         weight=draw(st.floats(0.0, 1.0)) if kind == "combo" else None)
    moves = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, n - 1),
                                    st.integers(0, n - 1), st.booleans()), max_size=30))
    return X.astype(np.int64), spec, moves


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(streams())
def test_cached_state_matches_fresh_evaluator(case):
    X, spec, moves = case
    ev = Evaluator(X, spec)
    for col, i, j, commit in moves:
        got = ev.propose(col, i, j)
        want = evaluate(exchange(ev.X, col, i, j), ev.spec)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-300)
        if commit:
            ev.commit(col, i, j)
    assert_matches_fresh(ev)


def assert_matches_fresh(ev):
    fresh = Evaluator(ev.X, ev.spec)
    for name in CACHES[ev.spec.kind]:
        assert np.array_equal(attrgetter(name)(ev), attrgetter(name)(fresh)), name
    assert ev.value() == pytest.approx(evaluate(ev.X, ev.spec), rel=1e-10, abs=1e-300)


@pytest.mark.parametrize("spec, n, k", [
    pytest.param(CriterionSpec("phi_p", p=15, q=1), 20, 5, id="phi_p-p15-q1"),
    pytest.param(CriterionSpec("phi_p", p=400, q=2), 20, 5, id="phi_p-p400-q2"),
    pytest.param(CriterionSpec("phi_p", p=15, q=2), 60, 6, id="phi_p-p15-q2-60x6"),
    pytest.param(CriterionSpec("combo", p=50, q=1, weight=0.5), 20, 5, id="combo-p50-q1"),
    pytest.param(CriterionSpec("maxpro"), 20, 5, id="maxpro-p15-q1"),
])
def test_long_accept_stream(spec, n, k):
    # more commits than the maxpro refresh interval and four phi_p sum
    # recomputation intervals, every proposal checked
    gen = np.random.default_rng(4242)
    X = np.column_stack([gen.permutation(n) + 1 for _ in range(k)])
    ev = Evaluator(X, spec)
    commits = 0
    while commits < 4200:
        col, i, j = int(gen.integers(k)), int(gen.integers(n)), int(gen.integers(n))
        got = ev.propose(col, i, j)
        want = evaluate(exchange(ev.X, col, i, j), ev.spec)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-300)
        if gen.random() < 0.9:
            ev.commit(col, i, j)
            commits += 1
    assert_matches_fresh(ev)


def test_reference_distance_follows_a_growing_minimum():
    # q=2, p=400: rows 0 and 1 start one level apart in every column (squared
    # distance 6) and the target's smallest squared distance is 470, so
    # (6/470)^200 underflows; the commits must move d_ref to keep the live
    # weights in range
    gen = np.random.default_rng(4)
    n, k = 100, 6
    target = np.column_stack([gen.permutation(n) + 1 for _ in range(k)])
    X, moves = target.copy(), []
    for col in range(k):
        level = X[0, col] + 1 if X[0, col] < n else X[0, col] - 1
        r = int(np.flatnonzero(X[:, col] == level)[0])
        X = exchange(X, col, 1, r)
        moves.append((col, 1, r))
    spec = CriterionSpec("phi_p", p=400, q=2)
    ev = Evaluator(X, spec)
    for col, i, j in reversed(moves):
        want = evaluate(exchange(ev.X, col, i, j), spec)
        assert ev.propose(col, i, j) == pytest.approx(want, rel=1e-10)
        ev.commit(col, i, j)
    assert np.array_equal(ev.X, target)
    assert_matches_fresh(ev)


@pytest.mark.parametrize("p", [1, 15])
def test_running_sum_matches_its_recomputation(p):
    # commits add the gathered change to the phi_p pair sum; at every step it
    # must match the sum recomputed from the exact distances, and the
    # recomputation must come at least every _PHI_RESUM commits (at p=1 the
    # sum never halves, so only that bound triggers it)
    gen = np.random.default_rng(7)
    n, k = 30, 5
    X = np.column_stack([gen.permutation(n) + 1 for _ in range(k)])
    ev = Evaluator(X, CriterionSpec("phi_p", p=p, q=2))
    state = ev._phi
    longest = 0
    for _ in range(2 * _PHI_RESUM + 100):
        col, i, j = int(gen.integers(k)), int(gen.integers(n)), int(gen.integers(n))
        ev.propose(col, i, j)
        ev.commit(col, i, j)
        longest = max(longest, state.since)
        exact = float(state.W.take(state.S).sum()) / 2.0
        assert state.T == pytest.approx(exact, rel=1e-12)
    assert 1 < longest < _PHI_RESUM
    if p == 1:
        assert longest == _PHI_RESUM - 1
    assert_matches_fresh(ev)


def test_committed_equal_rows_stay_infinite():
    # column 0 repeats a level; swapping column 1 of rows 1 and 3 makes rows 0
    # and 1 equal, while the other pairs keep the p=1 sum above half its value
    X = np.array([[1, 1], [1, 3], [2, 5], [3, 1], [4, 4], [5, 2]])
    spec = CriterionSpec("phi_p", p=1)
    ev = Evaluator(X, spec)
    assert ev.propose(1, 1, 3) == np.inf
    ev.commit(1, 1, 3)
    assert ev.value() == np.inf
    assert ev.propose(1, 1, 3) == pytest.approx(evaluate(X, spec), rel=1e-10)
    ev.commit(1, 1, 3)
    assert ev.value() == pytest.approx(evaluate(X, spec), rel=1e-10)


@pytest.mark.parametrize("q", [1, 2])
def test_table_grows_past_its_end(q):
    # the first swap creates a distance past 5/4 of the largest starting one,
    # so its proposal reads the table's NaN end and its commit extends the table
    X = np.array([[1, 5], [10, 1], [5, 10]])
    spec = CriterionSpec("phi_p", q=q)
    ev = Evaluator(X, spec)
    size = ev._phi.size
    for col, i, j in [(1, 0, 2), (0, 0, 1), (1, 1, 2), (0, 2, 0)]:
        want = evaluate(exchange(ev.X, col, i, j), spec)
        assert ev.propose(col, i, j) == pytest.approx(want, rel=1e-10)
        ev.commit(col, i, j)
    assert ev._phi.size > size
    assert_matches_fresh(ev)
