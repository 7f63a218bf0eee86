"""Exact algebraic generators for orthogonal and OA-based LHDs.

The power-of-two families (:func:`olhd_ye1998`, :func:`olhd_cioppa2007`,
:func:`olhd_sun2010`) share one engine: index the rows of a half-block by the
binary vectors r in GF(2)^c and attach to every column a flip-set F and a
sign character.  Column F holds sign(r) * (rank of r xor F), where the sign
is the parity character chi_{L(F)}(r) with L = I + downshift over GF(2).
Pairwise inner products reduce to character sums that vanish exactly (in
integer arithmetic), and stacking [block; 0; -block] or [block; -block] turns
the half-block into a full design with exactly zero column correlations.

Every construction returns levels 1..n; the internal arithmetic is on
centered levels, translated on return (an affine map, so correlations are
unchanged).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from itertools import combinations

import numpy as np

from .design import _freeze, as_design, exact_int64, parse_int_csv, rearranged_columns, validate
from .errors import (
    DimensionMismatchError,
    InvalidOAError,
    InvalidParameterError,
    UnknownNameError,
    as_int,
)
from .rng import Draws, RngStream, as_draws, permutation

# ---------------------------------------------------------------------------
# Orthogonal arrays
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrthogonalArray:
    """Symmetric orthogonal array: N x K cells of symbols 1..s, strength t
    (every t columns balanced).  Construction checks both (:func:`validate_oa`)
    and keeps a read-only copy of the cells; equal s, strength and cells compare equal."""

    cells: np.ndarray
    s: int
    strength: int = 2

    def __post_init__(self):
        cells = np.array(validate_oa(self.cells, self.s, self.strength))
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)

    def __eq__(self, other):
        if not isinstance(other, OrthogonalArray):
            return NotImplemented
        return (self.s, self.strength) == (other.s, other.strength) and np.array_equal(
            self.cells, other.cells)

    def __hash__(self) -> int:
        return hash((self.s, self.strength, self.cells.shape, self.cells.tobytes()))

    @property
    def N(self) -> int:
        return self.cells.shape[0]

    @property
    def K(self) -> int:
        return self.cells.shape[1]


def validate_oa(cells: np.ndarray, s: int, strength: int = 2) -> np.ndarray:
    """The cells as :func:`exact_int64` casts them, or InvalidOAError unless
    strength-t balance holds exactly: 2 <= t <= K, s^t divides N, and every t
    columns hold each of the s^t symbol tuples N/s^t times."""
    A = exact_int64(cells, "OA cells", InvalidOAError)
    if A.ndim != 2:
        raise InvalidOAError("array must be 2-D")
    N, K = A.shape
    s, t = as_int(s, "s", InvalidOAError), as_int(strength, "strength", InvalidOAError)
    if not 2 <= t <= K:
        raise InvalidOAError(f"strength must be in 2..{K} for {K} columns, got {t}")
    if s < 2 or N == 0 or N % s ** t != 0:
        raise InvalidOAError(f"run count {N} incompatible with s={s} at strength {t}")
    unbalanced = np.flatnonzero(~rearranged_columns(A, np.repeat(np.arange(1, s + 1), N // s)))
    if unbalanced.size:
        raise InvalidOAError(f"column {unbalanced[0] + 1} is not balanced over symbols 1..{s}")
    radix = s ** np.arange(t)
    for cols in combinations(range(K), t):
        counts = np.bincount((A[:, cols] - 1) @ radix, minlength=s ** t)
        if not np.all(counts == N // s ** t):
            raise InvalidOAError(
                f"columns {','.join(str(c + 1) for c in cols)} violate strength-{t} balance")
    return A


def parse_oa(text: str, sidecar) -> OrthogonalArray:
    """An OA from its CSV text (no header, one run per line, symbols 1..s)
    and its sidecar, a JSON object that declares the integers N, K, s and t."""
    declared = [sidecar.get(key) if isinstance(sidecar, dict) else None for key in "NKst"]
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in declared):
        raise InvalidOAError(f"an OA sidecar must declare integers N, K, s and t, got {sidecar!r}")
    try:
        cells = parse_int_csv(text)
    except ValueError as e:
        raise InvalidOAError(f"OA cells are not an integer CSV matrix: {e}") from e
    N, K, s, t = declared
    oa = OrthogonalArray(cells, s, t)
    if oa.cells.shape != (N, K):
        raise InvalidOAError(f"cells are {oa.cells.shape}, not (N, K) = ({N}, {K})")
    return oa


def _load_catalog_index() -> dict:
    with resources.files("lhdopt.data").joinpath("checksums.json").open("r") as f:
        return json.load(f)


def catalog_names() -> list[str]:
    """Names of the bundled, checksum-verified orthogonal arrays."""
    return sorted(_load_catalog_index().keys())


def good_oa_catalog(name: str) -> OrthogonalArray:
    """Load a bundled OA by name, e.g. "OA(9,4,3,2)".

    The file's SHA-256 is checked against the shipped manifest and the
    array is validated as it is built, so a corrupt data file can never
    flow into downstream constructions.
    """
    index = _load_catalog_index()
    if name not in index:
        raise UnknownNameError(f"unknown catalog OA {name!r}; have {sorted(index)}")
    entry = index[name]
    data = resources.files("lhdopt.data")
    raw = data.joinpath(entry["file"]).read_bytes()
    if hashlib.sha256(raw).hexdigest() != entry["sha256"]:
        raise InvalidOAError(f"checksum mismatch for {entry['file']}")
    return parse_oa(raw.decode(), json.loads(data.joinpath(entry["sidecar"]).read_text()))


def oa_to_lhd(oa: OrthogonalArray, rng: RngStream | Draws | None = None) -> np.ndarray:
    """Expand an OA into an N-run LHD by replacing each symbol's positions
    with distinct fine levels (Tang-style expansion).

    In each column, the N/s positions holding symbol m become a permutation
    of {(m-1)N/s + 1, ..., mN/s}: ascending order when ``rng`` is None
    (deterministic mode), otherwise a random permutation per (column, symbol)
    drawn from an ``RngStream`` or ``Draws`` (columns left to right, symbols
    ascending).  Collapsing the result via ceil(x*s/N) recovers the source
    array exactly.
    """
    N, K, s, reps = oa.N, oa.K, oa.s, oa.N // oa.s
    draws = None if rng is None else as_draws(rng)
    X = np.empty((N, K), dtype=np.int64)
    for c in range(K):
        for m in range(1, s + 1):
            pos = np.nonzero(oa.cells[:, c] == m)[0]
            fine = np.arange((m - 1) * reps + 1, m * reps + 1, dtype=np.int64)
            if draws is not None:
                fine = fine[permutation(draws, reps) - 1]
            X[pos, c] = fine
    return _freeze(X)


def collapse_to_oa(design: np.ndarray, s: int) -> np.ndarray:
    """Inverse of the expansion: map fine levels back to OA symbols 1..s.
    Every expansion has N = lambda s^2 runs, so s must divide N."""
    X = as_design(design)
    N = X.shape[0]
    s = as_int(s, "s", InvalidParameterError)
    if not 1 <= s <= N or N % s:
        raise InvalidParameterError(f"s must divide the run count {N}, got {s}")
    return (X * s + N - 1) // N


# ---------------------------------------------------------------------------
# Power-of-two orthogonal families
# ---------------------------------------------------------------------------


def _character_columns(c: int, flip_sets: list[int]) -> np.ndarray:
    """Half-block columns over rows GF(2)^c for the given flip-set bitmasks.

    Column F at row r holds chi(r) * (r xor F + 1) with chi the parity
    character of L(F) & r, L(F) = F xor (F >> 1).  Any two such columns have
    exactly zero inner product over the mirrored full design.
    """
    q = 1 << c
    r = np.arange(q, dtype=np.int64)
    cols = []
    for F in flip_sets:
        lf = F ^ (F >> 1)
        bits = r & lf
        for shift in (32, 16, 8, 4, 2, 1):  # XOR-fold the parity into bit 0
            bits ^= bits >> shift
        sign = 1 - 2 * (bits & 1)
        cols.append(sign * ((r ^ F) + 1))
    return np.column_stack(cols)


def _mirror(top: np.ndarray, center_row: bool) -> np.ndarray:
    k = top.shape[1]
    if center_row:
        return np.vstack([top, np.zeros((1, k), dtype=np.int64), -top])
    return np.vstack([top, -top])


def _centered_to_levels(X: np.ndarray) -> np.ndarray:
    """Translate a symmetric centered design to levels 1..n.

    Odd n (levels -q..q): add q+1.  Even n (levels +-1..+-n/2 with a gap at
    zero): close the gap by half a step first; both maps are monotone and the
    even-case construction keeps correlations exactly zero under it.
    """
    n = X.shape[0]
    if n % 2 == 1:
        out = X + (n // 2 + 1)
    else:
        out = ((2 * X - np.sign(X)) + n + 1) // 2
    return _freeze(out.astype(np.int64))


def _pair_flip_olhd(m: int, pairs) -> np.ndarray:
    """The n = 2^m + 1 run design of the identity, the m-1 single-bit flips
    and the flips of the bit pairs (i, j) in ``pairs(m - 1)``, mirrored
    around a center row."""
    m = as_int(m, "m", InvalidParameterError)
    if m < 2:
        raise InvalidParameterError(f"m must be at least 2, got {m}")
    c = m - 1
    flips = [0] + [1 << i for i in range(c)] + [(1 << i) | (1 << j) for i, j in pairs(c)]
    return _centered_to_levels(_mirror(_character_columns(c, flips), center_row=True))


def olhd_ye1998(m: int) -> np.ndarray:
    """Orthogonal LHD with n = 2^m + 1 runs and k = 2m - 2 factors (m >= 2).

    Columns: the identity permutation, the m-1 single-bit flips, and the m-2
    pair flips that involve the top bit.  The design is mirror-symmetric with
    a center row at level (n+1)/2 and has exactly zero column correlations.
    """
    return _pair_flip_olhd(m, lambda c: [(i, c - 1) for i in range(c - 1)])


def olhd_cioppa2007(m: int) -> np.ndarray:
    """Orthogonal LHD with n = 2^m + 1 runs and k = m + C(m-1, 2) factors.

    Same engine as :func:`olhd_ye1998` but with every pair flip included,
    which accommodates more factors at the same run count.
    """
    return _pair_flip_olhd(m, lambda c: combinations(range(c), 2))


def olhd_sun2010(c: int, r: int, plus_one: bool = False) -> np.ndarray:
    """Orthogonal LHD with n = r*2^(c+1) runs (+1 with a center row when
    ``plus_one``) and k = 2^c factors, for any positive integers c, r.

    Uses the full set of 2^c character columns as a base block T with sign
    pattern W = sign(T); stacking T + j*2^c*W for j = 0..r-1 and mirroring
    keeps all integer inner products exactly zero.
    """
    c, r = as_int(c, "c", InvalidParameterError), as_int(r, "r", InvalidParameterError)
    if c < 1 or r < 1:
        raise InvalidParameterError(f"need c >= 1 and r >= 1, got c={c}, r={r}")
    h = 1 << c
    T = _character_columns(c, list(range(h)))
    W = np.sign(T)
    A = np.vstack([T + j * h * W for j in range(r)])
    return _centered_to_levels(_mirror(A, center_row=plus_one))


# ---------------------------------------------------------------------------
# Williams-transformation constructions
# ---------------------------------------------------------------------------


def williams_transform(x: np.ndarray, n: int) -> np.ndarray:
    """Elementwise w(a) = 2a if 2a < n else 2(n-a)-1 on residues 0..n-1.

    Maps any permutation of 0..n-1 to another permutation of 0..n-1.
    """
    n = as_int(n, "n", InvalidParameterError)
    a = exact_int64(x, "entries", InvalidParameterError)
    if a.size and (a.min() < 0 or a.max() >= n):
        raise InvalidParameterError(f"entries must lie in 0..{n - 1}")
    return np.where(2 * a < n, 2 * a, 2 * (n - a) - 1)


def _is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def olhd_butler2001(n: int, k: int) -> np.ndarray:
    """Williams-transformed multiplicative-shift LHD for n an odd prime and
    k <= n-1: column g is w((g*i + s_g) mod n) + 1 at rows i = 1..n.  Taking
    multipliers in order, s_g is the smallest shift that minimizes the largest
    absolute column correlation so far, compared exactly on the integer Gram
    of the doubled-centered levels 2x - (n+1) (one product per multiplier).

    The result is exactly (Pearson) orthogonal whenever exact zero is
    reachable inside this family (for example k <= 2 at n = 5 and k <= 3 at
    n = 7) and nearly orthogonal otherwise.  Exact zero correlation for every
    pair is *not* attainable at k close to n-1: no 5-run LHD has even three
    mutually orthogonal columns (exhaustively checkable).

    Under the first-order cosine scores cos(pi*(x - 1/2)/n) of levels 1..n,
    columns with multipliers g and h are exactly orthogonal for any shifts
    whenever g != +-h (mod n), since w maps a to a level whose score is
    cos(2*pi*(a + 1/4)/n).  The design is therefore fully cosine-orthogonal
    for k <= (n-1)/2.  For k > (n-1)/2 the mirror pairs g + h = n are not
    cosine-orthogonal for any shift.
    """
    n, k = as_int(n, "n", InvalidParameterError), as_int(k, "k", InvalidParameterError)
    if not _is_odd_prime(n):
        raise InvalidParameterError("n must be an odd prime")
    if not 1 <= k <= n - 1:
        raise InvalidParameterError(f"k must be in 1..{n - 1}, got {k}")
    i = np.arange(1, n + 1, dtype=np.int64)[:, None]
    Z = np.empty((n, k), dtype=np.int64)  # doubled-centered levels of the chosen columns
    worst = 0  # largest absolute Gram entry among them
    for g in range(1, k + 1):
        shifted = 2 * williams_transform((g * i + np.arange(n)) % n, n) + 1 - n  # column s: shift s
        score = np.abs(Z[:, :g - 1].T @ shifted).max(axis=0, initial=worst)
        s = int(np.argmin(score))
        worst, Z[:, g - 1] = score[s], shifted[:, s]
    return _freeze((Z + n + 1) // 2)


# ---------------------------------------------------------------------------
# OLHD x OA coupling
# ---------------------------------------------------------------------------


def olhd_lin2009(olhd: np.ndarray, oa: OrthogonalArray) -> np.ndarray:
    """Couple an n x p (nearly) orthogonal LHD with a strength-2 OA(n^2, 2f, n)
    into an n^2-run LHD with 2fp factors.

    OA columns are taken in consecutive pairs; for pair (u, v) and each base
    column a (centered values a(1..n)), the rows r yield the rotated pair
        a(u_r) + n*a(v_r)   and   n*a(u_r) - a(v_r),
    each a permutation of the n^2 centered levels.  Strength-2 balance makes
    every cross inner product a multiple of the base design's centered Gram,
    so an orthogonal input gives an exactly orthogonal output.
    """
    if not validate(olhd).ok:
        raise DimensionMismatchError("base design must be a valid LHD")
    base = as_design(olhd)
    n, p = base.shape
    if oa.N != n * n:
        raise DimensionMismatchError(f"OA needs n^2 = {n * n} runs, has {oa.N}")
    if oa.s != n:
        raise DimensionMismatchError(f"OA needs {n} symbols, has {oa.s}")
    if oa.K % 2 != 0:
        raise DimensionMismatchError(f"OA needs an even column count, has {oa.K}")
    # doubled-centered base levels keep everything in exact integers
    Z = 2 * base - (n + 1)
    out = []
    for t in range(0, oa.K, 2):  # Zu[r, a] = a(u_r) of the pair (u, v) of columns t, t+1
        Zu, Zv = Z[oa.cells[:, t] - 1], Z[oa.cells[:, t + 1] - 1]
        for a in range(p):
            out += [Zu[:, a] + n * Zv[:, a], n * Zu[:, a] - Zv[:, a]]
    D2 = np.column_stack(out)  # doubled-centered levels of the n^2-run design
    return _freeze((D2 + n * n + 1) // 2)
