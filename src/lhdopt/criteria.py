"""Design-quality criteria behind one minimize-oriented objective interface.

All criteria are pure functions of the design; smaller is always better.
``CriterionSpec`` names a criterion plus its parameters and is the object
optimizers, the CLI, and the benchmark harness pass around.  ``Evaluator``
provides O(n)-per-move incremental re-evaluation for within-column swaps and
must agree with full evaluation to 1e-10 relative (property-tested).

Correlation arithmetic is exact: columns of an LHD share mean (n+1)/2 and
variance, so Pearson numerators are computed on the doubled-centered integer
levels z = 2x - (n+1) and a correlation is reported as exactly 0.0 whenever
the integer Gram entry is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import (
    DegenerateCoordinateError,
    IndexOutOfRangeError,
    InvalidConfigError,
    InvalidWeightError,
    TooFewColumnsError,
    UnsupportedExponentError,
)

KINDS = ("phi_p", "maxpro", "avgcor", "maxcor", "combo")

# swaps between full state refreshes of the incremental evaluator; refreshing
# bounds float drift from long accept streams well below the 1e-10 contract
_REFRESH_EVERY = 4096


@dataclass(frozen=True)
class CriterionSpec:
    """Declarative description of an objective.

    kind        one of "phi_p", "maxpro", "avgcor", "maxcor", "combo"
    p, q        phi_p exponent (>= 1) and distance exponent (1 or 2)
    weight      w in [0, 1]; only used by "combo"
    combo_parts constituent kinds of the combination (correlation, distance)
    norm_upper  upper proxy U for the normalized phi_p term of "combo";
                optimizers set it from the run's starting design, standalone
                evaluation falls back to the evaluated design's own phi_p
    """

    kind: str
    p: int = 15
    q: int = 1
    weight: float | None = None
    combo_parts: tuple[str, str] = ("avgsqcor", "phi_p")
    norm_upper: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidConfigError(
                f"unknown criterion {self.kind!r}; expected one of {KINDS}"
            )
        if not (isinstance(self.p, (int, np.integer)) and self.p >= 1):
            raise InvalidConfigError(f"p must be a positive integer, got {self.p!r}")
        if self.q not in (1, 2):
            raise UnsupportedExponentError(f"q must be 1 or 2, got {self.q!r}")
        if self.kind == "combo":
            if self.weight is None or not 0.0 <= float(self.weight) <= 1.0:
                raise InvalidWeightError(f"combo weight must be in [0,1], got {self.weight!r}")
            if tuple(self.combo_parts) != ("avgsqcor", "phi_p"):
                raise InvalidConfigError(
                    "only the (avgsqcor, phi_p) combination is supported"
                )

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "p": int(self.p), "q": int(self.q)}
        if self.kind == "combo":
            d["weight"] = float(self.weight)
            d["combo_parts"] = list(self.combo_parts)
            if self.norm_upper is not None:
                d["norm_upper"] = float(self.norm_upper)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CriterionSpec":
        kw = dict(d)
        if "combo_parts" in kw:
            kw["combo_parts"] = tuple(kw["combo_parts"])
        return cls(**kw)


def phi_p(design: np.ndarray, p: int = 15, q: int = 1) -> float:
    """Morris-Mitchell maximin surrogate: (sum over pairs of d_ij^-p)^(1/p).

    Computed with the smallest distance factored out, so large p cannot
    underflow the pair terms to zero.
    """
    if p < 1 or not float(p).is_integer():
        raise InvalidConfigError(f"p must be a positive integer, got {p}")
    if q not in (1, 2):
        raise UnsupportedExponentError(f"q must be 1 or 2, got {q}")
    X = np.ascontiguousarray(design, dtype=np.int64)
    return float(_kernels.phi_stable(X, float(p), q))


def maxpro_psi(design: np.ndarray) -> float:
    """Maximum-projection criterion: weak projections in any subset of
    coordinates inflate the reciprocal product of squared gaps.

    psi = ((1/C(n,2)) * sum over pairs of prod_l (x_il - x_jl)^-2)^(1/k).
    """
    X = np.ascontiguousarray(design, dtype=np.int64)
    n, k = X.shape
    s = float(_kernels.maxpro_sum(X))
    if s < 0.0:
        raise DegenerateCoordinateError(
            "two rows share a level in some column; maxpro needs an LHD"
        )
    npairs = n * (n - 1) // 2
    return float((s / npairs) ** (1.0 / k))


def _doubled_centered(design: np.ndarray) -> np.ndarray:
    X = np.asarray(design, dtype=np.int64)
    n = X.shape[0]
    return 2 * X - (n + 1)


def _gram(design: np.ndarray) -> np.ndarray:
    Z = _doubled_centered(design)
    return Z.T @ Z


def column_correlations(design: np.ndarray) -> np.ndarray:
    """k x k matrix of Pearson correlations between columns (diagonal 1)."""
    X = np.asarray(design)
    n = X.shape[0]
    G = _gram(X)
    v = n * (n * n - 1) // 3  # sum of squared doubled-centered levels
    C = G.astype(np.float64) / float(v)
    np.fill_diagonal(C, 1.0)
    return C


def _offdiag_correlations(design: np.ndarray) -> np.ndarray:
    k = design.shape[1]
    if k < 2:
        raise TooFewColumnsError(f"need at least 2 columns, got k={k}")
    C = column_correlations(design)
    return C[_kernels.pair_indices(k)]


def avg_abs_cor(design: np.ndarray) -> float:
    """Mean absolute Pearson correlation over unordered column pairs."""
    return float(np.mean(np.abs(_offdiag_correlations(design))))


def max_abs_cor(design: np.ndarray) -> float:
    """Largest absolute Pearson correlation; exactly 0 iff orthogonal."""
    return float(np.max(np.abs(_offdiag_correlations(design))))


def avg_sq_cor(design: np.ndarray) -> float:
    """Mean squared Pearson correlation over column pairs (0.0 when k < 2)."""
    if design.shape[1] < 2:
        return 0.0
    r = _offdiag_correlations(design)
    return float(np.mean(r * r))


def phi_p_lower_proxy(n: int, k: int, p: int, q: int) -> float:
    """L: phi_p if every pair distance equaled the average-distance bound."""
    if q == 1:
        dbar = k * (n + 1) / 3.0
    else:
        dbar = math.sqrt(k * (n * n - 1) / 6.0)
    npairs = n * (n - 1) // 2
    return npairs ** (1.0 / p) / dbar


def _normalized_phi(phi: float, n: int, k: int, spec: CriterionSpec) -> float:
    lower = phi_p_lower_proxy(n, k, spec.p, spec.q)
    upper = spec.norm_upper if spec.norm_upper is not None else phi
    denom = upper - lower
    if denom <= 0.0:
        return 0.0
    return (phi - lower) / denom


def weighted_objective(design: np.ndarray, spec: CriterionSpec) -> float:
    """w * (average squared column correlation) + (1-w) * normalized phi_p.

    The phi_p term is scaled to roughly [0, 1] with a documented proxy pair:
    L from the average-distance bound (see :func:`phi_p_lower_proxy`) and
    U = ``spec.norm_upper`` (a search run sets it to the starting design's
    phi_p; without one, the evaluated design's own phi_p is used, making the
    term 1).
    """
    if spec.kind != "combo":
        raise InvalidConfigError(f"weighted_objective needs kind='combo', got {spec.kind!r}")
    n, k = design.shape
    w = float(spec.weight)
    phi = phi_p(design, spec.p, spec.q)
    return w * avg_sq_cor(design) + (1.0 - w) * _normalized_phi(phi, n, k, spec)


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


class Evaluator:
    """Incremental criterion evaluation under within-column swaps.

    Holds a private copy of the design and per-pair state that a swap only
    changes in two rows: the pair gap sums ``S`` (phi_p, combo), the pair gap
    products ``P`` (maxpro) and the doubled-centered levels ``Z`` (avgcor,
    maxcor, combo).  ``propose(col, i, j)`` returns the criterion value the
    design would have after swapping rows i and j in column col, reading two
    rows of the cache; ``commit`` applies the swap and updates those rows.
    ``S`` and ``Z`` are integers and ``P`` is recomputed from the design, so
    the caches never drift; the scalar sums are recomputed every few
    thousand commits to keep additive float drift far below the 1e-10
    agreement contract.
    """

    def __init__(self, design: np.ndarray, spec: CriterionSpec):
        self.spec = spec
        self.X = np.array(design, dtype=np.int64, order="C")
        self.n, self.k = self.X.shape
        self._npairs = self.n * (self.n - 1) // 2
        self._p = float(spec.p)
        self._commits = 0
        self._cache_key = None
        self._refresh()
        if spec.kind in ("phi_p", "combo"):
            self._S = _kernels.gap_power_sums(self.X, spec.q)
        if spec.kind == "maxpro":
            self._P = _kernels.gap_products(self.X, self.X)
        if spec.kind in ("avgcor", "maxcor", "combo"):
            self._Z = _doubled_centered(self.X)
            self._iu = _kernels.pair_indices(self.k)
        if spec.kind == "combo" and spec.norm_upper is None:
            # pin U to the starting design so all later values share one scale
            self.spec = replace(spec, norm_upper=self._phi_from_sp(self._sp))

    # -- state ------------------------------------------------------------

    def _refresh(self) -> None:
        spec = self.spec
        if spec.kind in ("phi_p", "combo"):
            self._sp = float(_kernels.phi_sum(self.X, self._p, spec.q))
        if spec.kind == "maxpro":
            s = float(_kernels.maxpro_sum(self.X))
            if s < 0.0:
                raise DegenerateCoordinateError("maxpro needs an LHD (no shared levels)")
            self._ms = s
        if spec.kind in ("avgcor", "maxcor", "combo"):
            if spec.kind != "combo" and self.k < 2:
                raise TooFewColumnsError(f"need at least 2 columns, got k={self.k}")
            self._G = _gram(self.X)
            self._v = self.n * (self.n * self.n - 1) // 3

    def _phi_from_sp(self, sp: float) -> float:
        return sp ** (1.0 / self.spec.p)

    def _corr_stats(self, G: np.ndarray) -> tuple[float, float, float]:
        """(avg |r|, max |r|, avg r^2) over column pairs from a Gram matrix."""
        if self.k < 2:
            return 0.0, 0.0, 0.0
        r = G[self._iu].astype(np.float64) / float(self._v)
        a = np.abs(r)
        return float(a.mean()), float(a.max()), float((r * r).mean())

    def _value_from(self, state) -> float:
        spec = self.spec
        if spec.kind == "phi_p":
            return self._phi_from_sp(state)
        if spec.kind == "maxpro":
            return (state / self._npairs) ** (1.0 / self.k)
        if spec.kind == "avgcor":
            return self._corr_stats(state)[0]
        if spec.kind == "maxcor":
            return self._corr_stats(state)[1]
        sp, G = state
        phi = self._phi_from_sp(sp)
        w = float(spec.weight)
        return w * self._corr_stats(G)[2] + (1.0 - w) * _normalized_phi(
            phi, self.n, self.k, spec
        )

    def _state(self):
        spec = self.spec
        if spec.kind == "phi_p":
            return self._sp
        if spec.kind == "maxpro":
            return self._ms
        if spec.kind in ("avgcor", "maxcor"):
            return self._G
        return (self._sp, self._G)

    def value(self) -> float:
        return self._value_from(self._state())

    # -- moves ------------------------------------------------------------

    def _candidate_state(self, col: int, i: int, j: int):
        spec = self.spec
        X = self.X
        if spec.kind == "phi_p":
            return float(_kernels.phi_delta(self._S, X, col, i, j, self._p, spec.q, self._sp))
        if spec.kind == "maxpro":
            return float(_kernels.maxpro_delta(self._P, X, col, i, j, self._ms))
        # Gram update: only row/column `col` changes, diagonal is invariant
        Z = self._Z
        dz = int(Z[j, col]) - int(Z[i, col])
        row = self._G[col] + dz * (Z[i] - Z[j])
        row[col] = self._G[col, col]
        if spec.kind in ("avgcor", "maxcor"):
            G = self._G.copy()
            G[col, :] = row
            G[:, col] = row
            return G
        sp = float(_kernels.phi_delta(self._S, X, col, i, j, self._p, spec.q, self._sp))
        G = self._G.copy()
        G[col, :] = row
        G[:, col] = row
        return (sp, G)

    def propose(self, col: int, i: int, j: int) -> float:
        """Criterion value after the hypothetical swap; design unchanged."""
        if not (0 <= col < self.k and 0 <= i < self.n and 0 <= j < self.n):
            raise IndexOutOfRangeError(f"swap ({col}, {i}, {j}) outside design")
        state = self._candidate_state(col, i, j)
        self._cache_key = (col, i, j)
        self._cache_state = state
        return self._value_from(state)

    def commit(self, col: int, i: int, j: int) -> None:
        """Apply the swap and update the incremental state."""
        if self._cache_key != (col, i, j):
            self.propose(col, i, j)
        state = self._cache_state
        spec = self.spec
        if spec.kind == "phi_p":
            self._sp = state
        elif spec.kind == "maxpro":
            self._ms = state
        elif spec.kind in ("avgcor", "maxcor"):
            self._G = state
        else:
            self._sp, self._G = state
        X = self.X
        if spec.kind in ("phi_p", "combo"):
            self._update_gap_sums(col, i, j)
        if spec.kind in ("avgcor", "maxcor", "combo"):
            Z = self._Z
            Z[i, col], Z[j, col] = Z[j, col], Z[i, col]
        X[i, col], X[j, col] = X[j, col], X[i, col]
        if spec.kind == "maxpro":
            rows = [i, j]
            P = self._P
            P[rows] = _kernels.gap_products(X[rows], X)
            P[:, rows] = P[rows].T
        self._cache_key = None
        self._commits += 1
        if self._commits % _REFRESH_EVERY == 0:
            self._refresh()

    def _update_gap_sums(self, col: int, i: int, j: int) -> None:
        """Rows and columns i, j of ``S`` for the swap, from the design before it.

        Against every other row l, row i trades its column-col gap |x_i - x_l|^q
        for |x_j - x_l|^q and row j the reverse; the i-j pair is unchanged.
        """
        x = self.X[:, col]
        gi = np.abs(x[i] - x)
        gj = np.abs(x[j] - x)
        if self.spec.q == 2:
            gi = gi * gi
            gj = gj * gj
        delta = gj - gi
        delta[i] = 0
        delta[j] = 0
        S = self._S
        S[i] += delta
        S[j] -= delta
        S[:, i] = S[i]
        S[:, j] = S[j]


def delta_after_exchange(
    design: np.ndarray, spec: CriterionSpec, column: int, i: int, j: int
) -> float:
    """Criterion value of ``exchange(design, column, i, j)`` via incremental
    update of the affected pair terms only (a within-column swap touches
    2(n-2)+1 pair distances).  Agrees with full evaluation to 1e-10 relative.
    """
    return Evaluator(design, spec).propose(column, i, j)
