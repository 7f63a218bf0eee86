import numpy as np
import pytest

from lhdopt import criteria, exchange, is_slice_valid, search, validate


@pytest.fixture
def gen():
    """Plain NumPy generator for test-local sampling (not the library RNG)."""
    return np.random.default_rng(20240801)


def random_design(gen, n, k):
    return np.column_stack([gen.permutation(n) + 1 for _ in range(k)]).astype(np.int64)


class Visits(list):
    """The designs a search run evaluated, in order, and the ``Evaluator``
    instances it built (``evaluators``)."""

    def __init__(self):
        super().__init__()
        self.evaluators = []


@pytest.fixture
def visited(monkeypatch):
    """Record every design a search evaluates: the start of each
    ``Evaluator`` and each swap it is asked to price, and each design passed
    to ``criteria.evaluate``.  The searches look both up as module
    attributes, which is what the wrappers installed here replace."""
    seen = Visits()

    class RecordingEvaluator(search.Evaluator):
        def __init__(self, design, spec):
            super().__init__(design, spec)
            seen.append(self.X.copy())
            seen.evaluators.append(self)

        def propose(self, col, i, j):
            seen.append(exchange(self.X, col, i, j))
            return super().propose(col, i, j)

    evaluate = criteria.evaluate

    def recording_evaluate(design, spec):
        seen.append(np.array(design))
        return evaluate(design, spec)

    monkeypatch.setattr(search, "Evaluator", RecordingEvaluator)
    monkeypatch.setattr(criteria, "evaluate", recording_evaluate)
    return seen


def check_sliced_visits(designs, evaluators, slices):
    """Check what one ``sliced_sa_search`` run evaluated: stage 1 builds one
    evaluator per slice on its collapsed m-run design, stage 2 one on the
    assembled n-run design.  Every m-run design must be an LHD, every n-run
    design slice-valid, and each slice's stage-1 evaluator must end at the
    collapse of the stage-2 start: it does only if every committed stage-1
    swap was applied to the right rows of the full design.  Returns the
    number of designs."""
    t, m, n = slices.t, slices.m, slices.n
    full = [X for X in designs if X.shape[0] == n]
    assert full and len(full) + sum(X.shape[0] == m for X in designs) == len(designs)
    assert all(validate(X).ok for X in designs if X.shape[0] == m)
    assert all(is_slice_valid(X, slices) for X in full)
    start, stage1 = full[0], evaluators[:-1]
    assert len(stage1) == t
    for s, ev in enumerate(stage1, start=1):
        assert np.array_equal((start[slices.rows_of(s)] + t - 1) // t, ev.X)
    return len(designs)
