"""Design-quality criteria behind one minimize-oriented objective interface.

All criteria are pure functions of the design; smaller is always better.
``CriterionSpec`` names a criterion plus its parameters and is the object
optimizers, the CLI, and the benchmark harness pass around.  ``Evaluator``
provides O(n)-per-move incremental re-evaluation for within-column swaps of
an LHD and must agree with full evaluation to 1e-10 relative (property-tested).

Correlation arithmetic is exact: columns of an LHD share mean (n+1)/2 and
variance, so Pearson numerators are computed on the doubled-centered integer
levels z = 2x - (n+1) and a correlation is reported as exactly 0.0 whenever
the integer Gram entry is zero.  A design with a column that is not a
permutation of 1..n has other means and variances, so the correlation
criteria raise ``InvalidDesignError`` for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import _kernels
from .design import as_design, as_gap_design, exchange, rearranged_columns
from .errors import (
    DegenerateCoordinateError,
    IndexOutOfRangeError,
    InvalidConfigError,
    InvalidDesignError,
    InvalidDimensionError,
    InvalidWeightError,
    TooFewColumnsError,
    as_exponents,
    as_real,
)

KINDS = ("phi_p", "maxpro", "avgcor", "maxcor", "combo")

# the (correlation, distance) kinds that "combo" combines, as sidecars record them
COMBO_PARTS = ("avgsqcor", "phi_p")

# most commits between recomputations of a running pair sum from its exact
# pair matrix (see _PairSum): in between, a commit rounds the sum by at most
# about 240 eps of its value for n <= 1024, so 1024 commits stay below 6e-11
_RESUM = 1024

# a proposal whose running pair sum falls below this fraction of the
# committed one, or rises above _RANGE, is evaluated in full (see _PairSum);
# _RANGE must stay below the 2^900 cap of _kernels.phi_weights, so a capped
# phi_p weight always takes the full path
_CANCEL = 2.0 ** -10
_RANGE = 2.0 ** 256


@dataclass(frozen=True)
class CriterionSpec:
    """Declarative description of an objective.

    kind        one of "phi_p", "maxpro", "avgcor", "maxcor", "combo"
    p, q        phi_p exponent (>= 1) and distance exponent (1 or 2)
    weight      w in [0, 1]; only used by "combo", which always combines
                avgsqcor and phi_p (``COMBO_PARTS``)
    norm_upper  upper proxy U for the normalized phi_p term of "combo";
                optimizers set it from the run's starting design, standalone
                evaluation falls back to the evaluated design's own phi_p
    """

    kind: str
    p: int = 15
    q: int = 1
    weight: float | None = None
    norm_upper: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidConfigError(
                f"unknown criterion {self.kind!r}; expected one of {KINDS}"
            )
        as_exponents(self.p, self.q)
        if self.weight is not None:
            as_real(self.weight, "weight", InvalidWeightError)
        if self.norm_upper is not None:
            as_real(self.norm_upper, "norm_upper")
        if self.kind == "combo" and (self.weight is None or not 0.0 <= self.weight <= 1.0):
            raise InvalidWeightError(f"combo weight must be in [0,1], got {self.weight!r}")

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "p": int(self.p), "q": int(self.q)}
        if self.kind == "combo":
            d["weight"] = float(self.weight)
            d["combo_parts"] = list(COMBO_PARTS)
            if self.norm_upper is not None:
                d["norm_upper"] = float(self.norm_upper)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CriterionSpec":
        kw = dict(d)
        if kw.pop("combo_parts", COMBO_PARTS) not in (COMBO_PARTS, list(COMBO_PARTS)):
            raise InvalidConfigError("only the (avgsqcor, phi_p) combination is supported")
        unknown = sorted(set(kw) - {f.name for f in fields(cls)})
        if unknown:
            raise InvalidConfigError(f"unknown criterion field(s) {unknown}")
        return cls(**kw)


def phi_p(design: np.ndarray, p: int = 15, q: int = 1) -> float:
    """Morris-Mitchell maximin surrogate: (sum over pairs of d_ij^-p)^(1/p).

    Computed with the smallest distance factored out, so large p cannot
    underflow the pair terms to zero.
    """
    p, q = as_exponents(p, q)
    return float(_kernels.phi_stable(as_gap_design(design, q), float(p), q))


def maxpro_psi(design: np.ndarray) -> float:
    """Maximum-projection criterion: weak projections in any subset of
    coordinates inflate the reciprocal product of squared gaps.

    psi = ((1/C(n,2)) * sum over pairs of prod_l (x_il - x_jl)^-2)^(1/k).
    """
    X = as_gap_design(design, 1)
    n, k = X.shape
    npairs = n * (n - 1) // 2
    return float((_maxpro_total(_kernels.maxpro_sum(X), n, k) / npairs) ** (1.0 / k))


def _maxpro_total(s: float, n: int, k: int) -> float:
    """A maxpro pair sum of an n x k design, with its failure flags raised as errors."""
    if s < 0.0:
        raise DegenerateCoordinateError(
            "two rows share a level in some column; maxpro needs an LHD"
        )
    if s == math.inf:
        raise InvalidDimensionError(
            f"maxpro pair products overflow float64 at n={n}, k={k}; "
            "use a smaller design or another criterion"
        )
    return s


def _lhd(X: np.ndarray) -> np.ndarray:
    """``X``, whose every column must be a permutation of 1..n: the
    correlation arithmetic and the ``Evaluator`` need an LHD."""
    n = X.shape[0]
    if not rearranged_columns(X, np.arange(1, n + 1)).all():
        raise InvalidDesignError(f"need an LHD: every column a permutation of 1..{n}")
    return X


def _doubled_centered(X: np.ndarray) -> np.ndarray:
    """The levels z = 2x - (n+1) of the correlation arithmetic, which needs
    every column of X to be a permutation of 1..n; any other levels raise."""
    return 2 * _lhd(X) - (X.shape[0] + 1)


def _level_ss(n: int) -> float:
    """Sum of squared doubled-centered levels of an LHD column."""
    return float(n * (n * n - 1) // 3)


def column_correlations(design: np.ndarray) -> np.ndarray:
    """k x k matrix of Pearson correlations between columns (diagonal 1)."""
    X = as_design(design)
    Z = _doubled_centered(X)
    C = (Z.T @ Z).astype(np.float64) / _level_ss(X.shape[0])
    np.fill_diagonal(C, 1.0)
    return C


# a correlation statistic from the integer Gram vector g of the m >= 1 column
# pairs and v = _level_ss(n); sum / m has the bits of mean, and dividing by
# v > 0 is monotone, so it commutes with max
_COR_STATS = {
    "avgcor": lambda g, v, m: float((np.abs(g) / v).sum() / m),
    "maxcor": lambda g, v, m: float(np.abs(g).max()) / v,
    "avgsqcor": lambda g, v, m: float(np.square(g / v).sum() / m),
}


def _pair_gram(Z: np.ndarray) -> np.ndarray:
    """Integer Gram entries of the column pairs a < b of ``pair_indices``."""
    a, b = _kernels.pair_indices(Z.shape[1])
    return (Z.T @ Z)[a, b]


def _correlation(design: np.ndarray, stat: str) -> float:
    X = as_design(design)
    n, k = X.shape
    if k < 2:
        raise TooFewColumnsError(f"need at least 2 columns, got k={k}")
    return _COR_STATS[stat](_pair_gram(_doubled_centered(X)), _level_ss(n), k * (k - 1) // 2)


def avg_abs_cor(design: np.ndarray) -> float:
    """Mean absolute Pearson correlation over unordered column pairs."""
    return _correlation(design, "avgcor")


def max_abs_cor(design: np.ndarray) -> float:
    """Largest absolute Pearson correlation; exactly 0 iff orthogonal."""
    return _correlation(design, "maxcor")


def avg_sq_cor(design: np.ndarray) -> float:
    """Mean squared Pearson correlation over column pairs (0.0 when k < 2)."""
    X = as_design(design)
    return _correlation(X, "avgsqcor") if X.shape[1] >= 2 else 0.0


def phi_p_lower_proxy(n: int, k: int, p: int, q: int) -> float:
    """L: phi_p if every pair distance equaled the mean pair distance of an
    n x k LHD, k(n+1)/3 for q=1, or (q=2) the root mean square one,
    sqrt(k n(n+1)/6).  By the power-mean inequality every LHD has
    phi_p >= L, with equality only when all its pair distances are equal."""
    if q == 1:
        dbar = k * (n + 1) / 3.0
    else:
        dbar = math.sqrt(k * n * (n + 1) / 6.0)
    npairs = n * (n - 1) // 2
    return npairs ** (1.0 / p) / dbar


def _combo_mix(n: int, k: int, spec: CriterionSpec, phi_u: float):
    """The combo value w * cor + (1-w) * (phi - L) / (U - L) as a function of
    (cor, phi), with U the spec's ``norm_upper`` or else ``phi_u``.  U < L
    would flip the term's sign, so it raises; U == L (an equidistant design
    as U, e.g. any 2-run design) makes the term 0.0."""
    lower = phi_p_lower_proxy(n, k, spec.p, spec.q)
    upper = spec.norm_upper if spec.norm_upper is not None else phi_u
    if upper < lower:
        raise InvalidConfigError(
            f"combo upper proxy U={upper!r} is below the lower proxy L={lower!r}"
        )
    w, span = float(spec.weight), upper - lower
    return lambda cor, phi: w * cor + (1.0 - w) * ((phi - lower) / span if span else 0.0)


def pin_upper(spec: CriterionSpec, design: np.ndarray) -> CriterionSpec:
    """``spec`` with a combo's unset upper proxy U set to ``design``'s
    phi_p; any other spec as it is."""
    if spec.kind != "combo" or spec.norm_upper is not None:
        return spec
    return replace(spec, norm_upper=phi_p(design, spec.p, spec.q))


def weighted_objective(design: np.ndarray, spec: CriterionSpec) -> float:
    """w * (average squared column correlation) + (1-w) * normalized phi_p.

    The phi_p term is scaled to roughly [0, 1] with a documented proxy pair:
    L from the average-distance bound (see :func:`phi_p_lower_proxy`) and
    U = ``spec.norm_upper`` (a search run sets it to the starting design's
    phi_p; without one, the evaluated design's own phi_p is used, making the
    term 1).  U < L raises ``InvalidConfigError``; U == L gives the term 0.0.
    """
    if spec.kind != "combo":
        raise InvalidConfigError(f"weighted_objective needs kind='combo', got {spec.kind!r}")
    X = as_design(design)
    n, k = X.shape
    cor = avg_sq_cor(X)  # so a design that is no LHD raises before U is checked
    phi = phi_p(X, spec.p, spec.q)
    return _combo_mix(n, k, spec, phi)(cor, phi)


def evaluate(design: np.ndarray, spec: CriterionSpec) -> float:
    """Value of any criterion described by ``spec`` (smaller is better)."""
    if spec.kind == "phi_p":
        return phi_p(design, spec.p, spec.q)
    if spec.kind == "maxpro":
        return maxpro_psi(design)
    if spec.kind == "avgcor":
        return avg_abs_cor(design)
    if spec.kind == "maxcor":
        return max_abs_cor(design)
    return weighted_objective(design, spec)


class _PairSum:
    """A running float sum ``s`` over the row pairs, under one drift policy.

    A proposal whose new sum ``new`` is below ``_CANCEL`` of ``s``
    (cancellation eats the relative precision), above ``_RANGE`` or ``NaN``
    is evaluated in full.  A commit keeps ``new`` unless it is the
    ``_RESUM``-th since the last recomputation, follows a full evaluation,
    or falls below half the largest sum since then (or below ``floor``);
    then ``s`` is recomputed from the exact pair matrix.  A commit's change
    sums 4n terms, old and new, whose total is at most four times that
    largest sum, so it rounds ``s`` by at most about 240 eps for n <= 1024.

    A subclass supplies ``_step`` (the new sum), ``_value`` (the criterion
    value of a sum), ``_full`` (the value of the swapped design, evaluated
    in full), ``_update`` (the pair matrix after the swap) and ``_exact``.
    """

    floor = 0.0

    def propose(self, X: np.ndarray, col: int, i: int, j: int) -> float:
        self.new = self._step(X, col, i, j)
        self.fast = _CANCEL * self.s <= self.new <= _RANGE
        self.new_value = self._value(self.new) if self.fast else self._full(exchange(X, col, i, j))
        return self.new_value

    def commit(self, X: np.ndarray, col: int, i: int, j: int) -> None:
        """Apply the swap, made in ``X`` already, to the pair matrix and ``s``."""
        self._update(X, i, j)
        self.since += 1
        if self.fast and self.since < _RESUM and self.new >= max(self.peak / 2.0, self.floor):
            self.s, self.peak = self.new, max(self.peak, self.new)
            self.value = self.new_value
        else:
            self._resum()

    def _resum(self) -> None:
        self.s = self.peak = self._exact()
        self.since = 0
        self.value = self._value(self.s)


class _PhiState(_PairSum):
    """phi_p state keyed by the exact integer pair distances.

    ``S`` holds every pair distance as an int64 (L1 for q=1, squared L2 for
    q=2), and the read-only ``L = _kernels.level_table(n, q)`` the gap terms
    ``|u - v|^q`` between any two levels of a column, which a swap trades.
    The weight table ``W[d] = (d_ref/d)^e`` (e = p for q=1, p/2 for q=2)
    factors out a reference distance ``d_ref`` as ``phi_stable`` does,
    so no p underflows, and phi_p = s^(1/p) / d_ref^(1/q) for the scaled
    pair sum ``s``, the sum of ``W`` over the distances.

    ``W`` covers the distances up to 5/4 of the largest one at the
    start, never past k(n-1)^q, the largest an LHD has, and ends in a
    ``NaN``.  A proposal that creates a longer distance reads that ``NaN``
    and is evaluated in full, and its commit extends the table.

    A proposal adds ``phi_delta``'s gathered change to ``s``, which follows
    the drift policy of ``_PairSum`` with the floor 1/_RANGE.  A recomputed
    ``s`` outside [1/_RANGE, _RANGE] moves ``d_ref`` to the smallest
    distance, which is positive in an LHD, and rebuilds ``W``.
    """

    floor = 1.0 / _RANGE

    def __init__(self, X: np.ndarray, spec: CriterionSpec):
        n, k = X.shape
        self.q = int(spec.q)
        self.p = float(spec.p)
        self.e = self.p if self.q == 1 else self.p / 2.0
        self.S = _kernels.pair_matrix(_kernels.pair_gap_sums(X, self.q), n)
        self.L = _kernels.level_table(n, self.q)
        self.pairs = _kernels.pair_indices(n)
        self.reach = k * (n - 1) ** self.q
        self.size = 0
        self._resum()

    def _rescale(self) -> float:
        """Move ``d_ref`` to the smallest distance, rebuild ``W`` and return
        ``s`` over it, which is at least 1."""
        dref = int(self.S[self.pairs].min())
        self.W = _kernels.phi_weights(self.size + 1, dref, self.e)
        self.W[-1] = math.nan
        self.root = dref if self.q == 1 else math.sqrt(dref)
        return float(self.W.take(self.S).sum()) / 2.0  # S holds each pair twice

    def _exact(self) -> float:
        """``s`` from ``S``, rescaled when it leaves [1/_RANGE, _RANGE]; a
        distance past the end of ``W`` first sizes ``W`` to 5/4 of it."""
        top = int(self.S.max())
        if top >= self.size:
            self.size = min(top + top // 4, self.reach) + 1
            return self._rescale()
        s = float(self.W.take(self.S).sum()) / 2.0
        return s if self.floor <= s <= _RANGE else self._rescale()

    def _value(self, s: float) -> float:
        return s ** (1.0 / self.p) / self.root

    def _step(self, X: np.ndarray, col: int, i: int, j: int) -> float:
        dT, self.rows = _kernels.phi_delta(self.S, self.W, self.L, X[:, col], i, j)
        return self.s + dT

    def _full(self, Y: np.ndarray) -> float:
        return float(_kernels.phi_stable(Y, self.p, self.q))

    def _update(self, X: np.ndarray, i: int, j: int) -> None:
        S, rows = self.S, self.rows
        S[i] = S[:, i] = rows[0]
        S[j] = S[:, j] = rows[1]


class _CorrState:
    """Correlation state (avgcor, maxcor, the avgsqcor term of combo): the
    integer Gram vector ``g`` of the column pairs' doubled-centered levels.

    A swap in column ``col`` changes only the k-1 entries of ``g`` at
    ``pos[col]``, which pair ``col`` with the columns ``partner[col]``, by
    exact integers read off the design's levels x (z = 2x - (n+1)); a
    proposal updates those in a copy of ``g`` and computes the one
    statistic the criterion reads (0.0 when k < 2).
    """

    def __init__(self, X: np.ndarray, spec: CriterionSpec):
        n, k = X.shape
        if k < 2 and spec.kind != "combo":
            raise TooFewColumnsError(f"need at least 2 columns, got k={k}")
        a, b = _kernels.pair_indices(k)
        self.g = _pair_gram(2 * X - (n + 1))  # X is an LHD: Evaluator checked it
        self.pos = [np.flatnonzero((a == c) | (b == c)) for c in range(k)]
        self.partner = [a[p] + b[p] - c for c, p in enumerate(self.pos)]
        stat_of = _COR_STATS["avgsqcor" if spec.kind == "combo" else spec.kind]
        v, m = _level_ss(n), a.size
        self.stat = (lambda g: stat_of(g, v, m)) if m else (lambda g: 0.0)
        self.value = self.stat(self.g)

    def propose(self, X: np.ndarray, col: int, i: int, j: int) -> float:
        xi, xj = X[i], X[j]
        g = self.g.copy()
        g[self.pos[col]] += 4 * (xj[col] - xi[col]) * (xi - xj)[self.partner[col]]
        self.new, self.new_value = g, self.stat(g)
        return self.new_value

    def commit(self, X: np.ndarray, col: int, i: int, j: int) -> None:
        self.g, self.value = self.new, self.new_value


class _MaxproState(_PairSum):
    """maxpro state: the reciprocals ``R`` of the pair gap products (zero
    diagonal), the table ``G[u, v] = (u - v)^2`` with a diagonal of 1 and the
    pair sum ``s`` of ``R``, under the drift policy of ``_PairSum``.  A commit
    rebuilds rows and columns i, j of ``R`` exactly from the swapped design
    it is passed, so ``R`` never drifts.  ``s`` takes no floor: it is 1e-86
    at 300 x 30, so a floor of 1/_RANGE would resum on every commit."""

    def __init__(self, X: np.ndarray, spec: CriterionSpec):
        n, k = X.shape
        self.pairs, self.k = _kernels.pair_indices(n), k
        self.R = _kernels.pair_matrix(1.0 / _kernels.pair_gap_products(X), n)
        self.G = _kernels.level_table(n, 2) + np.eye(n + 1)
        self.G.setflags(write=False)
        self._resum()

    def _exact(self) -> float:
        r = self.R[self.pairs]  # 0.0 where a pair product overflowed
        return _maxpro_total(float(r.sum()) if r.min() else math.inf, len(self.R), self.k)

    def _value(self, s: float) -> float:
        return (s / self.pairs[0].size) ** (1.0 / self.k)

    def _step(self, X: np.ndarray, col: int, i: int, j: int) -> float:
        return _kernels.maxpro_delta(self.R, self.G, X[:, col], i, j, self.s)

    _full = staticmethod(maxpro_psi)

    def _update(self, X: np.ndarray, i: int, j: int) -> None:
        R = self.R
        R[i], R[j] = R[:, i], R[:, j] = _kernels.reciprocal_rows(X.T, i, j)


class _ComboState:
    """combo state: a ``_PhiState`` and an avgsqcor ``_CorrState``.  ``spec``
    pins U (to the starting design's phi_p when unset), so all later values
    share one scale."""

    def __init__(self, X: np.ndarray, spec: CriterionSpec):
        self.phi = _PhiState(X, spec)
        self.corr = _CorrState(X, spec)
        if spec.norm_upper is None:
            spec = replace(spec, norm_upper=self.phi.value)
        self.spec = spec
        self.mix = _combo_mix(*X.shape, spec, self.phi.value)
        self.value = self.mix(self.corr.value, self.phi.value)

    def propose(self, X: np.ndarray, col: int, i: int, j: int) -> float:
        self.new_value = self.mix(self.corr.propose(X, col, i, j),
                                  self.phi.propose(X, col, i, j))
        return self.new_value

    def commit(self, X: np.ndarray, col: int, i: int, j: int) -> None:
        self.phi.commit(X, col, i, j)
        self.corr.commit(X, col, i, j)
        self.value = self.new_value


_STATES = {"phi_p": _PhiState, "maxpro": _MaxproState, "combo": _ComboState}


class Evaluator:
    """Incremental criterion evaluation under within-column swaps of an LHD.

    The design must have every column a permutation of 1..n, as every
    design a search visits has; any other raises ``InvalidDesignError``.
    Holds the only copy ``X`` of the design, column-major so that its columns
    and ``X.T`` are contiguous, and the criterion's ``state`` (``_PhiState``,
    ``_MaxproState``, ``_CorrState`` or ``_ComboState``), which owns
    ``propose``, ``commit`` and ``value``.  ``propose(col, i, j)`` returns the
    value after swapping rows i and j in column col, in O(n); ``commit`` swaps
    them in ``X``, then commits the state on ``X``.  Incremental values agree
    with full evaluation to 1e-10 relative (property-tested).
    """

    def __init__(self, design: np.ndarray, spec: CriterionSpec):
        self.X = _lhd(as_design(design)).copy(order="F")
        self.n, self.k = self.X.shape
        self.state = _STATES.get(spec.kind, _CorrState)(self.X, spec)
        self.spec = getattr(self.state, "spec", spec)
        self._cache_key = None

    def value(self) -> float:
        return self.state.value

    def propose(self, col: int, i: int, j: int) -> float:
        """Criterion value after the hypothetical swap; design unchanged."""
        if not (0 <= col < self.k and 0 <= i < self.n and 0 <= j < self.n):
            raise IndexOutOfRangeError(f"swap ({col}, {i}, {j}) outside design")
        value = self.state.propose(self.X, col, i, j)
        self._cache_key = (col, i, j)
        return value

    def commit(self, col: int, i: int, j: int) -> None:
        """Apply the swap to ``X``, then update the incremental state."""
        if self._cache_key != (col, i, j):
            self.propose(col, i, j)
        X = self.X
        X[i, col], X[j, col] = X[j, col], X[i, col]
        self.state.commit(X, col, i, j)
        self._cache_key = None


def delta_after_exchange(
    design: np.ndarray, spec: CriterionSpec, column: int, i: int, j: int
) -> float:
    """Criterion value of ``exchange(design, column, i, j)``, evaluated in
    full; a combo spec without U takes the exchanged design's phi_p.  A
    search that proposes many swaps of one LHD uses :class:`Evaluator`,
    whose ``propose`` updates only the pairs the swap touches.
    """
    return evaluate(exchange(design, column, i, j), spec)
