"""Property tests of the incremental evaluator's cached per-pair state.

A stream of proposals, some committed and some not (including the no-op
swap i == j), must leave the cached pair distances and pair Gram vector
exactly equal to those of a fresh evaluator on the same design, and every
proposal must agree with full evaluation, over phi_p exponents 1..400 and
both distances.  The reciprocal gap products of maxpro must equal a fresh
evaluator's right after a recomputation; a maxpro commit writes the rows
its proposal scaled, products of rounded ratios, so in between they must
stay within 1e-12 of them, symmetric with a zero diagonal.  The running
pair sums of phi_p and maxpro must stay within 1e-10 of their full
values, also when a swap cancels most of the sum.
"""

from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhdopt import CriterionSpec, exchange
from lhdopt.criteria import _RESUM, KINDS, Evaluator, evaluate
from lhdopt.errors import InvalidDesignError

CACHES = {
    "phi_p": ("state.S",),
    "maxpro": ("state.R",),
    "avgcor": ("state.g",),
    "maxcor": ("state.g",),
    "combo": ("state.phi.S", "state.corr.g"),
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
        if name == "state.R" and ev.state.since:
            assert_reciprocals_within_drift(ev.state.R, fresh.state.R)
        else:
            assert np.array_equal(attrgetter(name)(ev), attrgetter(name)(fresh)), name
    assert ev.value() == pytest.approx(evaluate(ev.X, ev.spec), rel=1e-10, abs=1e-300)


def assert_reciprocals_within_drift(R, exact):
    # between recomputations every entry is a product of at most _RESUM
    # rounded ratios, each within an ulp or two of exact
    assert np.array_equal(R, R.T)
    assert not R.diagonal().any()
    np.testing.assert_allclose(R, exact, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("spec, n, k", [
    pytest.param(CriterionSpec("phi_p", p=15, q=1), 20, 5, id="phi_p-p15-q1"),
    pytest.param(CriterionSpec("phi_p", p=400, q=2), 20, 5, id="phi_p-p400-q2"),
    pytest.param(CriterionSpec("phi_p", p=15, q=2), 60, 6, id="phi_p-p15-q2-60x6"),
    pytest.param(CriterionSpec("combo", p=50, q=1, weight=0.5), 20, 5, id="combo-p50-q1"),
    pytest.param(CriterionSpec("maxpro"), 20, 5, id="maxpro-p15-q1"),
])
def test_long_accept_stream(spec, n, k):
    # more commits than four recomputation intervals of the running pair
    # sums of phi_p and maxpro, every proposal checked
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


def undo_one_level_gaps(spec, seed, n, k):
    # rows 0 and 1 of a random LHD are brought one level apart in every
    # column, and the evaluator undoes those swaps one by one, every
    # proposal checked against full evaluation
    gen = np.random.default_rng(seed)
    target = np.column_stack([gen.permutation(n) + 1 for _ in range(k)])
    X, moves = target.copy(), []
    for col in range(k):
        level = X[0, col] + 1 if X[0, col] < n else X[0, col] - 1
        r = int(np.flatnonzero(X[:, col] == level)[0])
        X = exchange(X, col, 1, r)
        moves.append((col, 1, r))
    ev = Evaluator(X, spec)
    for col, i, j in reversed(moves):
        want = evaluate(exchange(ev.X, col, i, j), spec)
        assert ev.propose(col, i, j) == pytest.approx(want, rel=1e-10)
        ev.commit(col, i, j)
    assert np.array_equal(ev.X, target)
    assert_matches_fresh(ev)


def test_reference_distance_follows_a_growing_minimum():
    # q=2, p=400: rows 0 and 1 start at squared distance 6 and the target's
    # smallest squared distance is 470, so (6/470)^200 underflows; the
    # commits must move d_ref to keep the live weights in range
    undo_one_level_gaps(CriterionSpec("phi_p", p=400, q=2), 4, 100, 6)


@pytest.mark.parametrize("seed", [4, 5])
@pytest.mark.parametrize("n, k", [(60, 8), (100, 10), (100, 12), (60, 12)])
def test_maxpro_sum_follows_a_falling_maximum(seed, n, k):
    # the pair of rows one level apart dominates the maxpro sum, so each undo
    # cancels most of it; the running sum must not keep the rounding of the
    # large terms it lost (or fall below zero, which makes psi complex)
    undo_one_level_gaps(CriterionSpec("maxpro"), seed, n, k)


@pytest.mark.parametrize("spec", [CriterionSpec("phi_p", p=1, q=2),
                                  CriterionSpec("phi_p", p=15, q=2),
                                  CriterionSpec("maxpro")], ids=["1", "15", "maxpro"])
def test_running_sum_matches_its_recomputation(spec):
    # commits add the gathered change to the running pair sum; at every step
    # it must match the sum recomputed from the committed pair matrix, and the
    # recomputation must come at least every _RESUM commits (at p=1 the phi_p
    # sum never halves, so only that bound triggers it)
    gen = np.random.default_rng(7)
    n, k = 30, 5
    X = np.column_stack([gen.permutation(n) + 1 for _ in range(k)])
    ev = Evaluator(X, spec)
    state = ev.state
    pairs = np.triu_indices(n, k=1)
    longest = 0
    for _ in range(2 * _RESUM + 100):
        col, i, j = int(gen.integers(k)), int(gen.integers(n)), int(gen.integers(n))
        ev.propose(col, i, j)
        ev.commit(col, i, j)
        longest = max(longest, state.since)
        if spec.kind == "maxpro":
            exact = float(state.R[pairs].sum())
        else:
            exact = float(state.W.take(state.S).sum()) / 2.0
        assert state.s == pytest.approx(exact, rel=1e-12)
    assert 1 < longest < _RESUM
    if spec.kind == "phi_p" and spec.p == 1:
        assert longest == _RESUM - 1
    assert_matches_fresh(ev)


@pytest.mark.parametrize("n, k", [(50, 8), (200, 10)])
def test_committed_reciprocals_stay_near_exact(n, k):
    # a random commit stream past two recomputation intervals: R must equal
    # a fresh evaluator's after every commit that recomputed the sum, and
    # stay within the drift bound after every eighth one in between, with
    # the running sum following the exact one
    gen = np.random.default_rng(n)
    X = np.column_stack([gen.permutation(n) + 1 for _ in range(k)])
    spec = CriterionSpec("maxpro")
    ev = Evaluator(X, spec)
    resums = 0
    for _ in range(2 * _RESUM + 100):
        col, i, j = int(gen.integers(k)), int(gen.integers(n)), int(gen.integers(n))
        ev.propose(col, i, j)
        ev.commit(col, i, j)
        if ev.state.since % 8 == 0:
            fresh = Evaluator(ev.X, spec).state
            if ev.state.since:
                assert_reciprocals_within_drift(ev.state.R, fresh.R)
            else:
                assert np.array_equal(ev.state.R, fresh.R)
                resums += 1
            assert ev.state.s == pytest.approx(fresh.s, rel=1e-10)
    assert resums >= 2
    assert_matches_fresh(ev)


def test_committed_equal_rows_stay_infinite():
    # column 0 repeats a level, so swapping column 1 of rows 1 and 3 makes
    # rows 0 and 1 equal; full evaluation gives that inf, while the
    # Evaluator, which takes LHDs only, refuses the design up front
    X = np.array([[1, 1], [1, 3], [2, 5], [3, 1], [4, 4], [5, 2]])
    spec = CriterionSpec("phi_p", p=1)
    assert evaluate(exchange(X, 1, 1, 3), spec) == np.inf
    with pytest.raises(InvalidDesignError):
        Evaluator(X, spec)


@pytest.mark.parametrize("q", [1, 2])
def test_table_grows_past_its_end(q):
    # the first swap makes rows 0 and 1 differ by 2 in both columns, a
    # distance (4 for q=1, 8 for q=2) at or past the table's end (size 4, 7),
    # so its proposal reads the table's NaN end and its commit extends the table
    X = np.array([[1, 3], [2, 1], [3, 2]])
    spec = CriterionSpec("phi_p", q=q)
    ev = Evaluator(X, spec)
    size = ev.state.size
    ev.propose(0, 1, 2)
    assert not ev.state.fast
    for col, i, j in [(0, 1, 2), (0, 0, 1), (1, 1, 2), (0, 2, 0)]:
        want = evaluate(exchange(ev.X, col, i, j), spec)
        assert ev.propose(col, i, j) == pytest.approx(want, rel=1e-10)
        ev.commit(col, i, j)
    assert ev.state.size > size
    assert_matches_fresh(ev)
