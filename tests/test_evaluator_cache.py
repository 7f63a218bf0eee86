"""Property tests of the incremental evaluator's cached per-pair state.

A stream of proposals, some committed and some not (including the no-op
swap i == j), must leave the cached gap sums, gap products, centered levels
and Gram matrix exactly equal to those of a fresh evaluator on the same
design, and every proposal must agree with full evaluation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhdopt import CriterionSpec, exchange
from lhdopt.criteria import KINDS, Evaluator, evaluate

CACHES = {
    "phi_p": ("_S",),
    "maxpro": ("_P",),
    "avgcor": ("_Z", "_G"),
    "maxcor": ("_Z", "_G"),
    "combo": ("_S", "_Z", "_G"),
}


@st.composite
def streams(draw):
    kind = draw(st.sampled_from(KINDS))
    q = draw(st.sampled_from((1, 2)))
    n = draw(st.integers(2, 14))
    k = draw(st.integers(2 if kind in ("avgcor", "maxcor") else 1, 6))
    X = np.column_stack([draw(st.permutations(range(1, n + 1))) for _ in range(k)])
    spec = CriterionSpec(kind, q=q, weight=draw(st.floats(0.0, 1.0)) if kind == "combo" else None)
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
    fresh = Evaluator(ev.X, ev.spec)
    for name in CACHES[spec.kind]:
        assert np.array_equal(getattr(ev, name), getattr(fresh, name)), name
    assert ev.value() == pytest.approx(evaluate(ev.X, ev.spec), rel=1e-10, abs=1e-300)
