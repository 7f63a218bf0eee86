"""Design-matrix data model: random generation, exchange moves, validation.

A Latin hypercube design (LHD) with n runs and k factors is an n x k integer
matrix in which every column is a permutation of 1..n.  Designs are plain
int64 NumPy arrays; functions that return a design mark it read-only, so a
design value never mutates after construction and is safe to share between
threads.  Row and column indices in this API are 0-based; levels are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (
    IndexOutOfRangeError,
    IndivisibleRunsError,
    InvalidDesignError,
    InvalidDimensionError,
    LhdError,
    as_exponents,
    as_int,
)
from .rng import Draws, RngStream, as_draws, permutation


def _freeze(X: np.ndarray) -> np.ndarray:
    X.setflags(write=False)
    return X


def as_design(design: np.ndarray) -> np.ndarray:
    """The design as a C-contiguous n x k int64 array, n >= 2, k >= 1, cast
    as :func:`exact_int64` casts."""
    A = np.asarray(design)
    if A.ndim != 2:
        raise InvalidDimensionError(f"a design must be 2-D, got {A.ndim}-D")
    if A.shape[0] < 2:
        raise InvalidDimensionError("need at least 2 runs")
    if A.shape[1] < 1:
        raise InvalidDimensionError("need at least 1 factor")
    return exact_int64(A, "design levels", InvalidDesignError)


def as_gap_design(design: np.ndarray, q: int) -> np.ndarray:
    """:func:`as_design`'s design, whose pair gap sums of |gap|^q, at most
    k * (max - min)^q, must be exact in int64: ``InvalidDesignError`` names
    the limit when that bound reaches 2^63."""
    X = as_design(design)
    span = int(X.max()) - int(X.min())
    if X.shape[1] * span ** q >= 2**63:
        raise InvalidDesignError(f"levels span {span} over k={X.shape[1]} columns: "
                                 f"k * span^{q} must stay below 2^63 for exact int64 gap sums")
    return X


def exact_int64(values, what: str, error: type[LhdError]) -> np.ndarray:
    """``values`` as a C-contiguous int64 array, or ``error`` naming ``what``.

    An array of an integer dtype is taken as it is, so the optimizers' int64
    designs pay no check, but a uint64 value above the int64 range is
    refused: the cast would wrap it to a negative level.  Any other must hold
    finite integral values, which cast exactly; a cast would truncate 1.5 to
    1 and turn a ``NaN`` into an arbitrary level.
    """
    A = np.asarray(values)
    if A.dtype.kind in "iu":
        if A.dtype == np.uint64 and A.size and A.max() > np.uint64(2**63 - 1):
            raise error(f"{what} must be finite integers within int64")
        return np.ascontiguousarray(A, dtype=np.int64)
    if A.dtype.kind not in "bfO":
        raise error(f"{what} must be integers, got dtype {A.dtype}")
    try:
        with np.errstate(invalid="ignore"):  # NaN and inf cast to some integer
            X = np.ascontiguousarray(A, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):  # None, NaN or a huge int as objects
        X = None
    if X is None or not (X == A).all():
        raise error(f"{what} must be finite integers within int64")
    return X


def parse_int_csv(text: str) -> np.ndarray:
    """The int64 array of CSV text, one row per non-blank line; a cell that is
    no integer or a ragged row raises ``ValueError`` for the caller to wrap."""
    return np.array([[int(v) for v in line.split(",")]
                     for line in text.strip().splitlines() if line.strip()], dtype=np.int64)


def random_lhd(n: int, k: int, rng: RngStream | Draws) -> np.ndarray:
    """Random LHD: each column an independent Fisher-Yates permutation of 1..n.

    Deterministic in the stream: the same (seed, stream) always yields the
    same design.  Columns are drawn left to right, from the start of an
    ``RngStream`` or from where a ``Draws`` stands (``rng.as_draws``).
    """
    n, k = as_int(n, "n", InvalidDimensionError), as_int(k, "k", InvalidDimensionError)
    if n < 2 or k < 1:
        raise InvalidDimensionError(f"need n >= 2 and k >= 1, got n={n}, k={k}")
    draws = as_draws(rng)
    X = np.empty((n, k), dtype=np.int64)
    for c in range(k):
        X[:, c] = permutation(draws, n)
    return _freeze(X)


def exchange(design: np.ndarray, column: int, i: int, j: int) -> np.ndarray:
    """Copy of the design with rows i and j swapped within one column.

    The input is left unmodified; applying the same exchange twice restores
    the original design.  An index that is not an integer (a float or a
    bool) raises ``IndexOutOfRangeError``, as one out of range does.
    """
    out = as_design(design).copy()
    n, k = out.shape
    column, i, j = (as_int(v, "an index", IndexOutOfRangeError) for v in (column, i, j))
    if not 0 <= column < k:
        raise IndexOutOfRangeError(f"column {column} outside 0..{k - 1}")
    if not (0 <= i < n and 0 <= j < n):
        raise IndexOutOfRangeError(f"rows ({i}, {j}) outside 0..{n - 1}")
    out[i, column], out[j, column] = out[j, column], out[i, column]
    return _freeze(out)


def distance_matrix(design: np.ndarray, q: int = 1) -> np.ndarray:
    """Symmetric inter-row distance matrix, d_ij = (sum_l |x_il - x_jl|^q)^(1/q).

    q=1 is the rectangular metric, q=2 Euclidean; other exponents are
    rejected.
    """
    _, q = as_exponents(1, q)  # p does not enter a distance
    return _kernels.dist_matrix(as_gap_design(design, q), q)


@dataclass
class ValidationReport:
    """Per-column outcome of the permutation invariant."""

    ok: bool
    n: int
    k: int
    column_ok: list[bool] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def validate(design: np.ndarray) -> ValidationReport:
    """Check that every column is a permutation of 1..n (diagnostic, no raise)."""
    arr = np.asarray(design)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        return ValidationReport(False, 0, 0, [], ["matrix must be 2-D and non-empty"])
    n, k = arr.shape
    try:
        arr = as_design(arr)
    except LhdError as e:
        return ValidationReport(False, n, k, [False] * k, [str(e)])
    ok = rearranged_columns(arr, np.arange(1, n + 1))
    problems: list[str] = []
    for c in np.flatnonzero(~ok):
        col = arr[:, c]
        if col.min() < 1 or col.max() > n:
            problems.append(f"column {c + 1}: levels not in 1..{n}")
        else:
            levels = np.sort(col)
            problems.append(f"column {c + 1}: repeats level {levels[1:][np.diff(levels) == 0][0]}")
    return ValidationReport(bool(ok.all()), n, k, ok.tolist(), problems)


def rearranged_columns(X: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Per column of the 2-D ``X``, whether it is a rearrangement of the
    sorted vector ``levels``; no column of another length is."""
    if X.shape[0] != len(levels):
        return np.zeros(X.shape[1], dtype=bool)
    return (np.sort(X, axis=0) == levels[:, None]).all(axis=0)


@dataclass(frozen=True)
class SliceStructure:
    """Partition of n = m*t runs into t slices of m runs each.

    ``assignment`` maps each row to a slice id in 1..t.  A design is
    slice-valid when, for every column, the m entries of each slice fall in
    m distinct level bins ceil(x/t), covering 1..m exactly once -- i.e. each
    slice collapses to a valid m-run LHD.
    """

    t: int
    m: int
    assignment: np.ndarray

    def __post_init__(self):
        t, m = as_int(self.t, "t", InvalidDimensionError), as_int(self.m, "m", InvalidDimensionError)
        if not np.array_equal(np.sort(self.assignment), np.repeat(np.arange(1, t + 1), m)):
            raise IndivisibleRunsError(f"assignment must give each of the slices 1..{t} exactly {m} rows")

    @property
    def n(self) -> int:
        return self.t * self.m

    def rows_of(self, slice_id: int) -> np.ndarray:
        """Row indices (0-based) of the given slice id (1-based)."""
        return np.nonzero(self.assignment == slice_id)[0]


def make_slices(n: int, t: int) -> SliceStructure:
    """Contiguous slice structure: rows 0..m-1 form slice 1, and so on."""
    n, t = as_int(n, "n", InvalidDimensionError), as_int(t, "t", InvalidDimensionError)
    if t < 2:
        raise IndivisibleRunsError(f"need at least 2 slices, got t={t}")
    if n % t != 0:
        raise IndivisibleRunsError(f"run count {n} not divisible by t={t}")
    m = n // t
    if m < 2:
        raise IndivisibleRunsError(f"need at least 2 runs per slice, got m={m}")
    assignment = np.repeat(np.arange(1, t + 1, dtype=np.int64), m)
    assignment.setflags(write=False)
    return SliceStructure(t=t, m=m, assignment=assignment)


def is_slice_valid(design: np.ndarray, slices: SliceStructure) -> bool:
    """True when the design is a valid LHD and every slice collapses to one."""
    X = as_design(design)
    if not rearranged_columns(X, np.arange(1, slices.n + 1)).all():
        return False
    bins = (X + slices.t - 1) // slices.t
    want = np.arange(1, slices.m + 1)
    return all(rearranged_columns(bins[slices.rows_of(s)], want).all()
               for s in range(1, slices.t + 1))
