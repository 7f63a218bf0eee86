"""Generated inputs at the two public boundaries: the criterion functions and
``lhdopt search``.

Every generated input must either raise a typed ``LhdError`` (exit 2 or 4
at the CLI) or give the answer of an independent reference: the naive
oracles for the criteria, and for a search the criteria of the written
design and a replay of its echo.  Both tests are derandomized, so a run
always draws the same examples.
"""

import json
import math
import tempfile
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from lhdopt import CriterionSpec, avg_abs_cor, max_abs_cor, maxpro_psi, phi_p
from lhdopt.cli import main, search_from_echo
from lhdopt.constructions import catalog_names
from lhdopt.criteria import KINDS, avg_sq_cor, evaluate
from lhdopt.errors import LhdError
from lhdopt.io import read_design
from lhdopt.search import ALGORITHMS

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

INT_DTYPES = (np.int64, np.int32, np.uint8, np.bool_)
FLOAT_DTYPES = (np.float64, np.float32, object, np.str_)


@st.composite
def arrays(draw):
    """Arrays of integer, float, object and string dtypes and 1 to 3
    dimensions: LHDs, levels outside 1..n, repeated rows, fractions, NaN, inf."""
    n, k = draw(st.integers(0, 6)), draw(st.integers(0, 4))
    kind = draw(st.sampled_from(("lhd", "levels", "floats")))
    if kind == "lhd":
        cols = [draw(st.permutations(range(1, n + 1))) for _ in range(k)]
    elif kind == "levels":
        cols = [draw(st.lists(st.integers(-2, n + 3), min_size=n, max_size=n)) for _ in range(k)]
    else:
        cell = st.one_of(st.integers(1, n + 1), st.sampled_from((1.5, math.nan, math.inf)))
        cols = [draw(st.lists(cell, min_size=n, max_size=n)) for _ in range(k)]
    A = np.array(cols, dtype=np.float64).T.reshape(n, k)
    if kind != "floats":
        A = A.astype(np.int64)
    A = A.astype(draw(st.sampled_from((INT_DTYPES if kind != "floats" else ()) + FLOAT_DTYPES)))
    shape = draw(st.sampled_from(("2d", "1d", "3d")))
    return A.ravel() if shape == "1d" else A[..., None] if shape == "3d" else A


def _oracle(name, rows, p, q):
    if name == "phi_p":
        d = oracles.pair_distances(rows, q)
        return math.inf if 0 in d else oracles.phi_from_distances(d, p)
    return getattr(oracles, name)(rows)


def _is_lhd(A):
    return (A.ndim == 2 and A.dtype.kind == "i" and min(A.shape) >= 1 and A.shape[0] >= 2
            and (np.sort(A, axis=0) == np.arange(1, A.shape[0] + 1)[:, None]).all())


CRITERIA = {"phi_p": phi_p, "maxpro_psi": maxpro_psi, "avg_abs_cor": avg_abs_cor,
            "max_abs_cor": max_abs_cor, "avg_sq_cor": avg_sq_cor}


def _one_column_non_lhds(test):
    """Explicit examples: one column that is no permutation of 1..n, which no
    correlation criterion may take as having no column pair."""
    for rows, name in product(([[1], [3], [5]], [[1], [1], [3]]),
                              ("avg_sq_cor", "avg_abs_cor", "max_abs_cor")):
        test = example(np.array(rows), name, 1, 1)(test)
    return test


@SETTINGS
@given(arrays(), st.sampled_from(sorted(CRITERIA)), st.integers(1, 20), st.sampled_from((1, 2)))
@_one_column_non_lhds
def test_criteria_raise_a_typed_error_or_match_the_oracles(A, name, p, q):
    args = (p, q) if name == "phi_p" else ()
    try:
        got = CRITERIA[name](A, *args)
    except LhdError:
        # an LHD fails only where the criterion needs more columns
        assert not _is_lhd(A) or (name in ("avg_abs_cor", "max_abs_cor") and A.shape[1] < 2)
        return
    rows = A.tolist()
    if name == "avg_sq_cor" and A.shape[1] < 2:  # one column of an LHD has no pair
        assert _is_lhd(A) and got == 0.0
        return
    want = _oracle(name, rows, p, q)
    assert got == pytest.approx(want, rel=1e-10), (name, rows)


def _mostly(draw, valid, invalid):
    """A draw from ``valid`` nine times in ten, else from ``invalid``."""
    return draw(invalid if draw(st.integers(0, 9)) == 9 else valid)


@st.composite
def search_argv(draw):
    """``lhdopt search`` arguments with budgets of at most 40 evaluations;
    each value is out of range one time in ten, and options an algorithm
    ignores may be set."""
    alg = draw(st.sampled_from(ALGORITHMS))
    budget = _mostly(draw, st.integers(1, 40), st.integers(-1, 0))
    argv = ["search", "--alg", alg, "--budget", str(budget), "--seed", str(draw(st.integers(0, 3)))]
    if alg == "oasa":
        argv += ["--oa", _mostly(draw, st.sampled_from(catalog_names()), st.just("OA(7,7,7,7)"))]
    else:
        sizes = st.sampled_from((4, 6, 8, 9)) if alg == "sa-sliced" else st.integers(2, 9)
        argv += ["-n", str(_mostly(draw, sizes, st.integers(-1, 1))),
                 "-k", str(_mostly(draw, st.integers(1, 4), st.just(0)))]
    kinds = ("phi_p", "combo") if alg == "sa-multiobj" else KINDS
    criterion = _mostly(draw, st.sampled_from(kinds), st.sampled_from(KINDS))
    argv += ["--criterion", criterion]
    if alg == "sa-multiobj" or criterion == "combo":
        argv += ["--weight", str(_mostly(draw, st.sampled_from((0.0, 0.3, 1.0)), st.just(1.5)))]
    if alg == "sa-sliced":
        argv += ["--slices", str(_mostly(draw, st.integers(2, 3), st.integers(0, 4)))]
    optional = {
        "--p": (st.integers(1, 30), st.just(0)), "--q": (st.sampled_from((1, 2)), st.just(3)),
        "--t0": (st.sampled_from((0.05, 2.0)), st.just(0.0)),
        "--alpha": (st.sampled_from((0.5, 0.95)), st.sampled_from((0.0, 1.0))),
        "--moves-per-temp": (st.integers(1, 5), st.just(0)),
        "--column-mode": (st.sampled_from(("cycle", "random")), st.just("spiral")),
        "--pop": (st.sampled_from((4, 6, 8)), st.integers(2, 5)),
        "--pmut": (st.sampled_from((0.0, 0.5, 1.0)), st.just(-0.1)),
        "--swarm": (st.integers(2, 4), st.just(1)),
        "--same-num-p": (st.integers(0, 5), st.just(-1)),
        "--same-num-g": (st.integers(0, 5), st.just(-1)),
    }
    for flag in draw(st.lists(st.sampled_from(sorted(optional)), unique=True, max_size=4)):
        argv += [flag, str(_mostly(draw, *optional[flag]))]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(search_argv())
def test_search_exits_typed_and_its_sidecar_replays(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "best.csv"
        try:
            code = main(argv + ["-o", str(out)])
        except SystemExit as e:  # argparse rejects an option value
            code = e.code
        assert code in (0, 2, 4), argv
        if code != 0:
            return
        meta = json.loads(out.with_suffix(".json").read_text())
        X = read_design(out)
    spec = CriterionSpec.from_dict(meta["config"]["criterion"])
    assert meta["value"] == pytest.approx(evaluate(X, spec), rel=1e-10), argv
    replayed = search_from_echo(meta["config"])
    assert np.array_equal(replayed.best, X) and replayed.value == meta["value"], argv
