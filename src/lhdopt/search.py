"""Metaheuristic optimizers over LHD space.

Six algorithms share one contract: criterion-generic (any CriterionSpec),
deterministic under an RngStream seed, budgeted in criterion evaluations,
and returning the best design seen (never the final state).  Randomness is
consumed in a documented order per algorithm, so seeded runs are exactly
reproducible; wall time is reported but excluded from that guarantee.

Every optimizer accepts an ``inspect`` callback that receives each full
design it visits (start and candidates; the sliced annealer reports the
assembled design whenever it changes) -- the structural tests use it to
check closure properties move by move.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import criteria as crit
from .constructions import OrthogonalArray, oa_to_lhd, validate_oa
from .criteria import CriterionSpec, Evaluator
from .design import SliceStructure, random_lhd
from .errors import InvalidConfigError
from .rng import RngStream, permutation, two_distinct

ALGORITHMS = ("sa", "oasa", "sa-multiobj", "sa-sliced", "ga", "lapso")

Inspect = Callable[[np.ndarray], None] | None


@dataclass
class OptimizerConfig:
    """Algorithm choice plus budget, seed, and hyperparameters.

    Unset hyperparameters take the documented defaults: SA cools geometrically
    (T0 = 0.1 x initial value, alpha = 0.95, 10k moves per temperature) and
    cycles columns deterministically; GA uses population 10 with pmut 0.25;
    LaPSO uses swarm 10, same-num-p = same-num-g = ceil(n/4), pmut = 1/k.
    """

    algorithm: str
    max_evaluations: int
    seed: RngStream
    t0: float | None = None
    alpha: float = 0.95
    moves_per_temp: int | None = None
    column_mode: str = "cycle"
    population: int = 10
    pmut: float | None = None
    swarm: int = 10
    same_num_p: int | None = None
    same_num_g: int | None = None
    weight: float | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InvalidConfigError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}"
            )
        if not (isinstance(self.max_evaluations, (int, np.integer)) and self.max_evaluations > 0):
            raise InvalidConfigError(f"budget must be a positive integer, got {self.max_evaluations!r}")
        if not isinstance(self.seed, RngStream):
            raise InvalidConfigError("seed must be an RngStream")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidConfigError(f"cooling rate alpha must be in (0,1), got {self.alpha}")
        if self.t0 is not None and self.t0 <= 0.0:
            raise InvalidConfigError(f"initial temperature t0 must be positive, got {self.t0}")
        if self.moves_per_temp is not None and self.moves_per_temp < 1:
            raise InvalidConfigError(f"moves_per_temp must be >= 1, got {self.moves_per_temp}")
        if self.column_mode not in ("cycle", "random"):
            raise InvalidConfigError(f"column_mode must be 'cycle' or 'random', got {self.column_mode!r}")
        if self.population < 4 or self.population % 2 != 0:
            raise InvalidConfigError(f"population must be an even integer >= 4, got {self.population}")
        if self.swarm < 2:
            raise InvalidConfigError(f"swarm must be at least 2, got {self.swarm}")
        if self.pmut is not None and not 0.0 <= self.pmut <= 1.0:
            raise InvalidConfigError(f"pmut must be in [0,1], got {self.pmut}")
        for name in ("same_num_p", "same_num_g"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise InvalidConfigError(f"{name} must be >= 0, got {v}")
        if self.weight is not None and not 0.0 <= self.weight <= 1.0:
            raise InvalidConfigError(f"weight must be in [0,1], got {self.weight}")


@dataclass
class SearchResult:
    """Best design found plus the run's bookkeeping.

    ``trace`` lists (evaluation index, best-so-far value), non-increasing in
    value and ending at ``value``.  ``config_echo`` carries every input
    needed to replay the run exactly; ``elapsed`` (seconds) is informational
    and excluded from determinism guarantees.
    """

    best: np.ndarray
    value: float
    evaluations_used: int
    trace: list[tuple[int, float]]
    elapsed: float
    config_echo: dict
    extras: dict = field(default_factory=dict)


def _echo(config: OptimizerConfig, spec: CriterionSpec, n: int, k: int, **extra) -> dict:
    d = {
        "algorithm": config.algorithm,
        "n": int(n),
        "k": int(k),
        "criterion": spec.to_dict(),
        "max_evaluations": int(config.max_evaluations),
        "seed": int(config.seed.seed),
        "stream": int(config.seed.stream),
        "alpha": config.alpha,
        "column_mode": config.column_mode,
    }
    for name in ("t0", "moves_per_temp", "population", "pmut", "swarm",
                 "same_num_p", "same_num_g", "weight"):
        v = getattr(config, name)
        if v is not None:
            d[name] = v
    d.update(extra)
    return d


class _Budget:
    """Evaluation counter with best-so-far trace."""

    def __init__(self, limit: int):
        self.limit = int(limit)
        self.used = 0
        self.best_value = math.inf
        self.best: np.ndarray | None = None
        self.trace: list[tuple[int, float]] = []

    def exhausted(self) -> bool:
        return self.used >= self.limit

    def record(self, value: float, design: np.ndarray) -> None:
        self.used += 1
        if value < self.best_value:
            self.best_value = value
            self.best = np.array(design, dtype=np.int64)
            self.trace.append((self.used, value))

    def finish(self) -> None:
        if not self.trace or self.trace[-1] != (self.used, self.best_value):
            self.trace.append((self.used, self.best_value))


def _result(budget: _Budget, started: float, echo: dict, extras: dict | None = None) -> SearchResult:
    budget.finish()
    best = budget.best
    best.setflags(write=False)
    return SearchResult(
        best=best,
        value=budget.best_value,
        evaluations_used=budget.used,
        trace=budget.trace,
        elapsed=time.perf_counter() - started,
        config_echo=echo,
        extras=extras or {},
    )


# ---------------------------------------------------------------------------
# Simulated annealing core
# ---------------------------------------------------------------------------


def _sa_loop(ev: Evaluator, gen: np.random.Generator, config: OptimizerConfig,
             budget: _Budget, propose_move, inspect: Inspect = None) -> None:
    """Anneal until the budget runs out.

    Per move: ``propose_move`` picks (col, i, j); downhill and tying proposals
    are accepted outright, uphill ones with probability exp(-delta/T) (one
    uniform draw, taken only when delta > 0).  Temperature multiplies by
    alpha every ``moves_per_temp`` moves.
    """
    cur = ev.value()
    t = config.t0 if config.t0 is not None else 0.1 * cur
    mpt = config.moves_per_temp if config.moves_per_temp is not None else 10 * ev.k
    move = 0
    while not budget.exhausted():
        col, i, j = propose_move(move)
        if inspect is not None:
            Xc = ev.X.copy()
            Xc[i, col], Xc[j, col] = Xc[j, col], Xc[i, col]
            inspect(Xc)
        cand = ev.propose(col, i, j)
        delta = cand - cur
        accept = delta <= 0.0
        if not accept:
            accept = t > 0.0 and gen.random() < math.exp(-delta / t)
        if accept:
            ev.commit(col, i, j)
            cur = cand
        budget.record(cand if accept else math.inf, ev.X)
        move += 1
        if move % mpt == 0:
            t *= config.alpha


def _init_sa(design: np.ndarray, spec: CriterionSpec, budget: _Budget,
             inspect: Inspect) -> Evaluator:
    if inspect is not None:
        inspect(np.asarray(design))
    ev = Evaluator(design, spec)
    budget.record(ev.value(), ev.X)
    return ev


def sa_search(n: int, k: int, spec: CriterionSpec, config: OptimizerConfig,
              inspect: Inspect = None) -> SearchResult:
    """Simulated annealing from a random start.

    Columns are picked by cycling 0..k-1 (or uniformly when
    ``column_mode='random'``); the two rows are uniform distinct draws.
    Returns the best design visited, not the final state.
    """
    started = time.perf_counter()
    gen = config.seed.generator()
    budget = _Budget(config.max_evaluations)
    ev = _init_sa(random_lhd(n, k, gen), spec, budget, inspect)

    def propose(move: int):
        col = move % k if config.column_mode == "cycle" else int(gen.integers(k))
        i, j = two_distinct(gen, n)
        return col, i, j

    _sa_loop(ev, gen, config, budget, propose, inspect)
    return _result(budget, started, _echo(config, ev.spec, n, k))


def oasa_search(oa: OrthogonalArray, spec: CriterionSpec, config: OptimizerConfig,
                inspect: Inspect = None) -> SearchResult:
    """OA-based annealing: start from the deterministic expansion of ``oa``
    and only swap positions that hold the same source symbol, so every
    visited design still collapses back to the array.
    """
    started = time.perf_counter()
    validate_oa(oa.cells, oa.s, oa.strength)
    gen = config.seed.generator()
    budget = _Budget(config.max_evaluations)
    ev = _init_sa(oa_to_lhd(oa), spec, budget, inspect)
    n, k = oa.N, oa.K
    groups = [
        [np.nonzero(oa.cells[:, c] == m)[0] for m in range(1, oa.s + 1)]
        for c in range(k)
    ]

    def propose(move: int):
        col = move % k if config.column_mode == "cycle" else int(gen.integers(k))
        i = int(gen.integers(n))
        grp = groups[col][oa.cells[i, col] - 1]
        r = int(gen.integers(len(grp) - 1))
        j = int(grp[r])
        if j == i:
            j = int(grp[-1])
        return col, i, j

    _sa_loop(ev, gen, config, budget, propose, inspect)
    echo = _echo(config, ev.spec, n, k, oa_shape=[oa.N, oa.K, oa.s, oa.strength])
    return _result(budget, started, echo)


def sa_multiobj_search(n: int, k: int, w: float, config: OptimizerConfig,
                       inspect: Inspect = None,
                       p: int = 15, q: int = 1) -> SearchResult:
    """Annealing on the weighted combination w*(avg squared correlation) +
    (1-w)*(normalized phi_p); the normalization upper proxy is the starting
    design's phi_p.  Reports both constituents of the best design.
    """
    if not 0.0 <= w <= 1.0:
        raise InvalidConfigError(f"weight must be in [0,1], got {w}")
    spec = CriterionSpec("combo", p=p, q=q, weight=w)
    result = sa_search(n, k, spec, config, inspect)
    best = result.best
    result.extras = {
        "avg_sq_cor": crit.avg_sq_cor(best),
        "phi_p": crit.phi_p(best, p, q),
        "max_abs_cor": crit.max_abs_cor(best) if k >= 2 else 0.0,
        "norm_lower": crit.phi_p_lower_proxy(n, k, p, q),
    }
    return result


def sliced_sa_search(slices: SliceStructure, k: int, spec: CriterionSpec,
                     config: OptimizerConfig, inspect: Inspect = None) -> SearchResult:
    """Two-stage annealing for sliced LHDs.

    Stage 1 spends half the budget optimizing each slice independently as an
    m-run LHD on its level bins (within-slice swaps, collapsed criterion).
    Stage 2 anneals the assembled n-run design with swaps that exchange two
    same-bin entries of a column across slices, which preserves slice
    validity by construction.  Both stages count criterion evaluations
    against the one budget.
    """
    started = time.perf_counter()
    t, m, n = slices.t, slices.m, slices.n
    if k < 1:
        raise InvalidConfigError(f"need k >= 1, got {k}")
    gen = config.seed.generator()
    budget = _Budget(config.max_evaluations)

    # random slice-valid start: spread each bin's t values one per slice,
    # then arrange each slice's m values over its rows
    X = np.empty((n, k), dtype=np.int64)
    slice_rows = [slices.rows_of(s) for s in range(1, t + 1)]
    for c in range(k):
        fine = np.empty((t, m), dtype=np.int64)
        for b in range(m):
            vals = np.arange(b * t + 1, b * t + t + 1, dtype=np.int64)
            fine[:, b] = vals[permutation(gen, t) - 1]
        for s in range(t):
            order = permutation(gen, m) - 1
            X[slice_rows[s], c] = fine[s, order]
    if inspect is not None:
        inspect(X.copy())

    # stage 1: per-slice annealing on the collapsed m-run designs; one
    # evaluation is always reserved for the assembled design
    stage1_budget = min(config.max_evaluations // 2, config.max_evaluations - 1)
    per_slice = stage1_budget // t
    for s in range(t if per_slice >= 2 else 0):
        rows = slice_rows[s]
        collapsed = (X[rows] + t - 1) // t
        sub = Evaluator(collapsed, spec)
        cur = sub.value()
        budget.record(math.inf, X)  # collapsed evals count, best is full-design only
        tt = config.t0 if config.t0 is not None else 0.1 * cur
        mpt = config.moves_per_temp if config.moves_per_temp is not None else 10 * k
        used = 1
        move = 0
        while used < per_slice and not budget.exhausted():
            col = move % k if config.column_mode == "cycle" else int(gen.integers(k))
            i, j = two_distinct(gen, m)
            cand = sub.propose(col, i, j)
            used += 1
            budget.record(math.inf, X)
            delta = cand - cur
            accept = delta <= 0.0
            if not accept:
                accept = tt > 0.0 and gen.random() < math.exp(-delta / tt)
            if accept:
                sub.commit(col, i, j)
                cur = cand
                ri, rj = rows[i], rows[j]
                X[ri, col], X[rj, col] = X[rj, col], X[ri, col]
                if inspect is not None:
                    inspect(X.copy())
            move += 1
            if move % mpt == 0:
                tt *= config.alpha

    # stage 2: same-bin cross-slice swaps on the assembled design
    if inspect is not None:
        inspect(X.copy())
    ev = Evaluator(X, spec)
    budget.record(ev.value(), ev.X)
    rowof = [np.empty(n, dtype=np.int64) for _ in range(k)]
    for c in range(k):
        rowof[c][X[:, c] - 1] = np.arange(n)

    cur = ev.value()
    tt = config.t0 if config.t0 is not None else 0.1 * cur
    mpt = config.moves_per_temp if config.moves_per_temp is not None else 10 * k
    move = 0
    while not budget.exhausted():
        col = move % k if config.column_mode == "cycle" else int(gen.integers(k))
        b = int(gen.integers(m))
        v1, v2 = two_distinct(gen, t)
        i = int(rowof[col][b * t + v1])
        j = int(rowof[col][b * t + v2])
        if inspect is not None:
            Xc = ev.X.copy()
            Xc[i, col], Xc[j, col] = Xc[j, col], Xc[i, col]
            inspect(Xc)
        cand = ev.propose(col, i, j)
        delta = cand - cur
        accept = delta <= 0.0
        if not accept:
            accept = tt > 0.0 and gen.random() < math.exp(-delta / tt)
        if accept:
            vi, vj = ev.X[i, col], ev.X[j, col]
            ev.commit(col, i, j)
            cur = cand
            rowof[col][vi - 1], rowof[col][vj - 1] = j, i
        budget.record(cand if accept else math.inf, ev.X)
        move += 1
        if move % mpt == 0:
            tt *= config.alpha

    echo = _echo(config, ev.spec, n, k, slices={"t": t, "m": m})
    return _result(budget, started, echo, {"stage1_evaluations": min(stage1_budget, budget.used)})


# ---------------------------------------------------------------------------
# Population methods
# ---------------------------------------------------------------------------


def ga_search(n: int, k: int, spec: CriterionSpec, config: OptimizerConfig,
              inspect: Inspect = None) -> SearchResult:
    """Genetic algorithm focused on the incumbent best.

    Each generation keeps the best design unchanged (elite) and rebuilds every
    other slot by column-wise crossover with the best: each column comes from
    the best with probability 1/2, otherwise from the slot's current design
    (mixing whole columns preserves the LHD property).  Mutation then applies
    one random within-column swap to each column independently with
    probability pmut.
    """
    started = time.perf_counter()
    gen = config.seed.generator()
    pop_size = config.population
    pmut = config.pmut if config.pmut is not None else 0.25
    budget = _Budget(config.max_evaluations)
    spec = _pin_combo(spec, n, k, gen_seed=config.seed)

    pop: list[np.ndarray] = []
    vals: list[float] = []
    for _ in range(pop_size):
        X = np.array(random_lhd(n, k, gen))
        if budget.exhausted():
            break
        if inspect is not None:
            inspect(X.copy())
        v = crit.evaluate(X, spec)
        budget.record(v, X)
        pop.append(X)
        vals.append(v)

    while not budget.exhausted():
        elite = int(np.argmin(vals))
        best_parent = pop[elite]
        new_pop = [best_parent]
        new_vals = [vals[elite]]
        for idx in range(pop_size):
            if idx == elite:
                continue
            if budget.exhausted():
                break
            mask = gen.integers(0, 2, size=k).astype(bool)
            child = np.where(mask[None, :], best_parent, pop[idx])
            for c in range(k):
                if gen.random() < pmut:
                    i, j = two_distinct(gen, n)
                    child[i, c], child[j, c] = child[j, c], child[i, c]
            if inspect is not None:
                inspect(child.copy())
            v = crit.evaluate(child, spec)
            budget.record(v, child)
            new_pop.append(child)
            new_vals.append(v)
        pop = new_pop
        vals = new_vals

    return _result(budget, started, _echo(config, spec, n, k, pmut_effective=pmut))


def match_swaps(column: np.ndarray, target: np.ndarray, count: int,
                gen: np.random.Generator) -> np.ndarray:
    """Up to ``count`` swaps moving ``column`` toward ``target``.

    Precondition: ``column`` is a rearrangement of ``target`` and its values
    are distinct, as in every LHD column (a permutation of 1..n).  Each swap
    picks a disagreeing position uniformly (one bounded draw over the sorted
    disagreeing positions) and swaps it with the position currently holding
    the target's value there, so the Hamming distance to the target never
    increases and drops by at least one per swap.  Returns the modified copy.
    """
    col = np.array(column, dtype=np.int64)
    diff = np.flatnonzero(col != target).tolist()
    if not diff:
        return col
    cur = col.tolist()
    want = np.asarray(target).tolist()
    where = {v: r for r, v in enumerate(cur)}
    for _ in range(count):
        if not diff:
            break
        r = diff.pop(int(gen.integers(len(diff))))
        r2 = where[want[r]]
        cur[r], cur[r2] = cur[r2], cur[r]
        where[cur[r]] = r
        where[cur[r2]] = r2
        if cur[r2] == want[r2]:
            del diff[bisect.bisect_left(diff, r2)]
    return np.array(cur, dtype=np.int64)


def lapso_search(n: int, k: int, spec: CriterionSpec, config: OptimizerConfig,
                 inspect: Inspect = None) -> SearchResult:
    """Swap-based particle swarm: per column, each particle performs up to
    same-num-p swaps toward its personal best, then up to same-num-g swaps
    toward the global best, then one random swap with probability pmut.
    Personal and global bests update right after the particle is evaluated.
    """
    started = time.perf_counter()
    gen = config.seed.generator()
    swarm = config.swarm
    snp = config.same_num_p if config.same_num_p is not None else math.ceil(n / 4)
    sng = config.same_num_g if config.same_num_g is not None else math.ceil(n / 4)
    pmut = config.pmut if config.pmut is not None else 1.0 / k
    budget = _Budget(config.max_evaluations)
    spec = _pin_combo(spec, n, k, gen_seed=config.seed)

    particles: list[np.ndarray] = []
    vals: list[float] = []
    for _ in range(swarm):
        X = np.array(random_lhd(n, k, gen))
        if budget.exhausted():
            break
        if inspect is not None:
            inspect(X.copy())
        v = crit.evaluate(X, spec)
        budget.record(v, X)
        particles.append(X)
        vals.append(v)

    pbest = [X.copy() for X in particles]
    pvals = list(vals)
    g_idx = int(np.argmin(pvals))
    gbest = pbest[g_idx].copy()
    gval = pvals[g_idx]

    while not budget.exhausted():
        for pi in range(len(particles)):
            if budget.exhausted():
                break
            X = particles[pi]
            for c in range(k):
                X[:, c] = match_swaps(X[:, c], pbest[pi][:, c], snp, gen)
                X[:, c] = match_swaps(X[:, c], gbest[:, c], sng, gen)
                if gen.random() < pmut:
                    i, j = two_distinct(gen, n)
                    X[i, c], X[j, c] = X[j, c], X[i, c]
            if inspect is not None:
                inspect(X.copy())
            v = crit.evaluate(X, spec)
            budget.record(v, X)
            vals[pi] = v
            if v < pvals[pi]:
                pvals[pi] = v
                pbest[pi] = X.copy()
            if v < gval:
                gval = v
                gbest = X.copy()

    echo = _echo(config, spec, n, k, same_num_p_effective=snp,
                 same_num_g_effective=sng, pmut_effective=pmut)
    return _result(budget, started, echo)


def _pin_combo(spec: CriterionSpec, n: int, k: int, gen_seed: RngStream) -> CriterionSpec:
    """Population methods evaluate designs independently, so a combo spec
    needs its normalization upper proxy pinned up front; use the phi_p of the
    run's first random design (same convention as the annealers)."""
    if spec.kind != "combo" or spec.norm_upper is not None:
        return spec
    probe = random_lhd(n, k, gen_seed)
    return replace(spec, norm_upper=crit.phi_p(probe, spec.p, spec.q))
