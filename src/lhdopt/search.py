"""Metaheuristic optimizers over LHD space.

Six algorithms share one contract: criterion-generic (any CriterionSpec),
deterministic under an RngStream seed, budgeted in criterion evaluations,
and returning the best design seen (never the final state).  Randomness is
consumed in a documented order per algorithm, so seeded runs are exactly
reproducible; wall time is reported but excluded from that guarantee.

The searches reach ``Evaluator`` and ``crit.evaluate`` through module
attributes when they run, so a wrapper installed on
``lhdopt.search.Evaluator`` or ``lhdopt.criteria.evaluate`` sees every
design a run evaluates; the tests and the profiler observe runs that way.

``run`` is the one dispatch from an algorithm name to its search, used by
the CLI, the benchmark and replay; ``NEEDS`` lists what each one takes.
"""

from __future__ import annotations

import bisect
import math
import numbers
import time
from dataclasses import dataclass, field, fields, replace
from itertools import compress
from operator import ne

import numpy as np

from . import criteria as crit
from .constructions import OrthogonalArray, oa_to_lhd
from .criteria import CriterionSpec, Evaluator
from .design import SliceStructure, as_size, make_slices, random_lhd
from .errors import InvalidConfigError, InvalidDimensionError, as_int
from .io import load_oa
from .rng import Draws, RngStream, permutation, two_distinct

# algorithm -> the inputs of ``run`` it needs besides the criterion, budget
# and seed; ``weight`` is ``config.weight``, ``slices`` the slice count t and
# ``oa`` a catalog name or an OA CSV path
NEEDS = {
    "sa": ("n", "k"),
    "oasa": ("oa",),
    "sa-multiobj": ("n", "k", "weight"),
    "sa-sliced": ("n", "k", "slices"),
    "ga": ("n", "k"),
    "lapso": ("n", "k"),
}
ALGORITHMS = tuple(NEEDS)


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
        for name in _INTEGERS:
            if getattr(self, name) is not None:
                setattr(self, name, as_int(getattr(self, name), name))
        for name in ("alpha", "t0", "pmut", "weight"):
            v = getattr(self, name)
            if v is not None and (isinstance(v, bool) or not isinstance(v, numbers.Real)):
                raise InvalidConfigError(f"{name} must be a number, got {v!r}")
        if self.max_evaluations < 1:
            raise InvalidConfigError(f"budget must be a positive integer, got {self.max_evaluations!r}")
        if not isinstance(self.seed, RngStream):
            raise InvalidConfigError("seed must be an RngStream")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidConfigError(f"cooling rate alpha must be in (0,1), got {self.alpha}")
        if self.t0 is not None and not (math.isfinite(self.t0) and self.t0 > 0.0):
            raise InvalidConfigError(
                f"initial temperature t0 must be positive and finite, got {self.t0}")
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

    @classmethod
    def from_echo(cls, echo: dict) -> "OptimizerConfig":
        """The config of a run, rebuilt from its ``config_echo``."""
        kw = {name: echo[name] for name in HYPERPARAMETERS if name in echo}
        return cls(algorithm=echo["algorithm"], max_evaluations=echo["max_evaluations"],
                   seed=RngStream(echo["seed"], echo["stream"]), **kw)


# the integer fields of OptimizerConfig; a float is refused, not truncated
_INTEGERS = ("max_evaluations", "moves_per_temp", "population", "swarm", "same_num_p", "same_num_g")

# OptimizerConfig fields besides the algorithm, budget and seed; a run's
# ``config_echo`` carries those that are set
HYPERPARAMETERS = tuple(f.name for f in fields(OptimizerConfig)
                        if f.name not in ("algorithm", "max_evaluations", "seed"))


@dataclass
class SearchResult:
    """Best design found plus the run's bookkeeping.

    ``trace`` lists (evaluation index, best-so-far value), non-increasing in
    value and ending at ``value``.  ``config_echo`` records the algorithm,
    size, criterion, budget, seed and set hyperparameters, enough to replay
    the run (``cli.search_from_echo``) except for a direct ``oasa_search``
    call: its echo holds the array's shape, and only ``run`` adds the
    ``oa_name`` that locates the array.  ``elapsed`` (seconds) is
    informational and excluded from determinism guarantees.
    """

    best: np.ndarray
    value: float
    evaluations_used: int
    trace: list[tuple[int, float]]
    elapsed: float
    config_echo: dict
    extras: dict = field(default_factory=dict)


class _Run:
    """One run of the search of ``algorithm``: its draws, its evaluation
    budget with the best-so-far trace, and its clock.  It refuses a config
    of another algorithm before it takes the draws, since the echo would
    replay the other search; ``start`` records the start design's
    evaluation; ``result`` builds the ``SearchResult`` with the echo of
    ``config``, the config that ran.  Sliced stage 1 runs each slice on a
    sub-run of ``limit`` evaluations that shares the parent's ``draws``."""

    def __init__(self, config: OptimizerConfig, algorithm: str, limit: int | None = None,
                 draws: Draws | None = None):
        if config.algorithm != algorithm:
            raise InvalidConfigError(f"this search runs {algorithm}, not {config.algorithm!r}")
        self.started = time.perf_counter()
        self.config = config
        self.draws = config.seed.draws() if draws is None else draws
        self.limit = config.max_evaluations if limit is None else int(limit)
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
            self.best = np.array(design, dtype=np.int64, order="C")
            self.trace.append((self.used, value))

    def start(self, design: np.ndarray, spec: CriterionSpec) -> Evaluator:
        """An ``Evaluator`` on the start ``design``, its value recorded."""
        ev = Evaluator(design, spec)
        self.record(ev.value(), ev.X)
        return ev

    def result(self, spec: CriterionSpec, n: int, k: int, extras: dict | None = None,
               **echo) -> SearchResult:
        """The run's result; ``echo`` adds keys to the config echo."""
        config = self.config
        d = {
            "algorithm": config.algorithm,
            "n": int(n),
            "k": int(k),
            "criterion": spec.to_dict(),
            "max_evaluations": int(config.max_evaluations),
            "seed": int(config.seed.seed),
            "stream": int(config.seed.stream),
        }
        for name in HYPERPARAMETERS:
            v = getattr(config, name)
            if v is not None:
                d[name] = v
        d.update(echo)
        if not self.trace or self.trace[-1] != (self.used, self.best_value):
            self.trace.append((self.used, self.best_value))
        self.best.setflags(write=False)
        return SearchResult(
            best=self.best,
            value=self.best_value,
            evaluations_used=self.used,
            trace=self.trace,
            elapsed=time.perf_counter() - self.started,
            config_echo=d,
            extras=extras or {},
        )


# ---------------------------------------------------------------------------
# Simulated annealing core
# ---------------------------------------------------------------------------


def _sa_loop(ev: Evaluator, run: _Run, propose, on_commit=None) -> None:
    """Anneal until the run's budget runs out.

    Per move: the column cycles 0..k-1 (or is a uniform draw when
    ``column_mode='random'``) and ``propose(col)`` picks the rows (i, j) to
    swap in it; downhill and tying proposals are accepted outright, uphill
    ones with probability exp(-delta/T) (one uniform draw, taken only when
    delta > 0).  Temperature multiplies by alpha every ``moves_per_temp``
    moves.  ``on_commit(col, i, j)`` runs after each accepted swap is applied
    to ``ev``.
    """
    draws, config = run.draws, run.config
    cur = ev.value()
    t = config.t0 if config.t0 is not None else 0.1 * cur
    k = ev.k
    mpt = config.moves_per_temp if config.moves_per_temp is not None else 10 * k
    cycle = config.column_mode == "cycle"
    move = 0
    while not run.exhausted():
        col = move % k if cycle else draws.below(k)
        i, j = propose(col)
        cand = ev.propose(col, i, j)
        delta = cand - cur
        accept = delta <= 0.0
        if not accept:
            accept = t > 0.0 and draws.random() < math.exp(-delta / t)
        if accept:
            ev.commit(col, i, j)
            cur = cand
            if on_commit is not None:
                on_commit(col, i, j)
        run.record(cand if accept else math.inf, ev.X)
        move += 1
        if move % mpt == 0:
            t *= config.alpha


def sa_search(n: int, k: int, spec: CriterionSpec, config: OptimizerConfig) -> SearchResult:
    """Simulated annealing from a random start.

    Columns are picked by cycling 0..k-1 (or uniformly when
    ``column_mode='random'``); the two rows are uniform distinct draws.
    Returns the best design visited, not the final state.
    """
    return _anneal_random_start(_Run(config, "sa"), n, k, spec)


def _anneal_random_start(run: _Run, n: int, k: int, spec: CriterionSpec) -> SearchResult:
    """The annealer of ``sa_search`` and ``sa_multiobj_search``, on the run each builds."""
    ev = run.start(random_lhd(n, k, run.draws), spec)
    _sa_loop(ev, run, lambda col: two_distinct(run.draws, n))
    return run.result(ev.spec, n, k)


def oasa_search(oa: OrthogonalArray, spec: CriterionSpec, config: OptimizerConfig) -> SearchResult:
    """OA-based annealing: start from the deterministic expansion of ``oa``
    and only swap positions that hold the same source symbol, so every
    visited design still collapses back to the array.
    """
    run = _Run(config, "oasa")
    draws = run.draws
    ev = run.start(oa_to_lhd(oa), spec)
    n, k = oa.N, oa.K
    groups = [
        [np.nonzero(oa.cells[:, c] == m)[0] for m in range(1, oa.s + 1)]
        for c in range(k)
    ]

    def propose(col: int):
        i = draws.below(n)
        grp = groups[col][oa.cells[i, col] - 1]
        r = draws.below(len(grp) - 1)
        j = int(grp[r])
        if j == i:
            j = int(grp[-1])
        return i, j

    _sa_loop(ev, run, propose)
    return run.result(ev.spec, n, k, oa_shape=[oa.N, oa.K, oa.s, oa.strength])


def sa_multiobj_search(n: int, k: int, w: float, config: OptimizerConfig,
                       p: int = CriterionSpec.p, q: int = CriterionSpec.q) -> SearchResult:
    """Annealing on the weighted combination w*(avg squared correlation) +
    (1-w)*(normalized phi_p); the normalization upper proxy is the starting
    design's phi_p.  Reports both constituents of the best design.
    ``config.weight``, when set, must be ``w``; the echo records ``w``.
    """
    run = _Run(config, "sa-multiobj")
    if config.weight is not None and config.weight != w:
        raise InvalidConfigError(f"config.weight {config.weight} differs from w = {w}")
    run.config = replace(config, weight=w)  # checks w and echoes it
    result = _anneal_random_start(run, n, k, CriterionSpec("combo", p=p, q=q, weight=w))
    best = result.best
    result.extras = {
        "avg_sq_cor": crit.avg_sq_cor(best),
        "phi_p": crit.phi_p(best, p, q),
        "max_abs_cor": crit.max_abs_cor(best) if k >= 2 else 0.0,
        "norm_lower": crit.phi_p_lower_proxy(n, k, p, q),
    }
    return result


def sliced_sa_search(slices: SliceStructure, k: int, spec: CriterionSpec,
                     config: OptimizerConfig) -> SearchResult:
    """Two-stage annealing for sliced LHDs.

    Stage 1 spends half the budget optimizing each slice independently as an
    m-run LHD on its level bins (within-slice swaps, collapsed criterion).
    Stage 2 anneals the assembled n-run design with swaps that exchange two
    same-bin entries of a column across slices, which preserves slice
    validity by construction.  Both stages count criterion evaluations
    against the one budget.  A ``combo`` upper proxy ``norm_upper`` is the
    n-run design's: stage 1 takes each slice's own from its collapsed start.
    """
    t, m, n = slices.t, slices.m, slices.n
    n, k = as_size(n, k)
    run = _Run(config, "sa-sliced")
    draws = run.draws

    # random slice-valid start: spread each bin's t values one per slice,
    # then arrange each slice's m values over its rows
    X = np.empty((n, k), dtype=np.int64)
    slice_rows = [slices.rows_of(s) for s in range(1, t + 1)]
    for c in range(k):
        fine = np.empty((t, m), dtype=np.int64)
        for b in range(m):
            vals = np.arange(b * t + 1, b * t + t + 1, dtype=np.int64)
            fine[:, b] = vals[permutation(draws, t) - 1]
        for s in range(t):
            order = permutation(draws, m) - 1
            X[slice_rows[s], c] = fine[s, order]

    # stage 1: per-slice annealing on the collapsed m-run designs, each on its
    # own share of the budget; one evaluation is reserved for the full design
    stage1_budget = min(config.max_evaluations // 2, config.max_evaluations - 1)
    per_slice = stage1_budget // t
    for s in range(t if per_slice >= 2 else 0):
        rows = slice_rows[s]

        def apply_to_full(col: int, i: int, j: int) -> None:
            ri, rj = rows[i], rows[j]
            X[ri, col], X[rj, col] = X[rj, col], X[ri, col]

        sub = _Run(config, "sa-sliced", per_slice, draws)
        collapsed = sub.start((X[rows] + t - 1) // t, replace(spec, norm_upper=None))
        _sa_loop(collapsed, sub, lambda col: two_distinct(draws, m), on_commit=apply_to_full)
        run.used += sub.used  # collapsed evals count, best is full-design only

    # stage 2: same-bin cross-slice swaps on the assembled design
    ev = run.start(X, spec)
    rowof = [np.argsort(X[:, c]) for c in range(k)]  # rowof[c][v - 1]: row of level v

    def propose(col: int):
        b = draws.below(m)
        v1, v2 = two_distinct(draws, t)
        return int(rowof[col][b * t + v1]), int(rowof[col][b * t + v2])

    def relink(col: int, i: int, j: int) -> None:
        rowof[col][ev.X[i, col] - 1] = i
        rowof[col][ev.X[j, col] - 1] = j

    _sa_loop(ev, run, propose, relink)
    return run.result(ev.spec, n, k, {"stage1_evaluations": min(stage1_budget, run.used)},
                      slices={"t": t, "m": m})


# ---------------------------------------------------------------------------
# Population methods
# ---------------------------------------------------------------------------


def _random_starts(count: int, n: int, k: int, spec: CriterionSpec,
                   run: _Run) -> tuple[list, list, CriterionSpec]:
    """Up to ``count`` random designs, their values and the spec they are of:
    a combo spec without U gets the first design's phi_p, as an annealer
    takes its start's.  A design is drawn before the budget is checked."""
    designs, vals = [], []
    for _ in range(count):
        X = np.array(random_lhd(n, k, run.draws))
        if run.exhausted():
            break
        spec = crit.pin_upper(spec, X)
        v = crit.evaluate(X, spec)
        run.record(v, X)
        designs.append(X)
        vals.append(v)
    return designs, vals, spec


def ga_search(n: int, k: int, spec: CriterionSpec, config: OptimizerConfig) -> SearchResult:
    """Genetic algorithm focused on the incumbent best.

    Each generation keeps the best design unchanged (elite) and rebuilds every
    other slot by column-wise crossover with the best: each column comes from
    the best with probability 1/2, otherwise from the slot's current design
    (mixing whole columns preserves the LHD property).  Mutation then applies
    one random within-column swap to each column independently with
    probability pmut.
    """
    run = _Run(config, "ga")
    draws = run.draws
    pop_size = config.population
    pmut = config.pmut if config.pmut is not None else 0.25
    pop, vals, spec = _random_starts(pop_size, n, k, spec, run)

    while not run.exhausted():
        elite = int(np.argmin(vals))
        best_parent = pop[elite]
        new_pop = [best_parent]
        new_vals = [vals[elite]]
        for idx in range(pop_size):
            if idx == elite:
                continue
            if run.exhausted():
                break
            mask = np.array(draws.below_many(2, k), dtype=bool)
            child = np.where(mask[None, :], best_parent, pop[idx])
            for c in range(k):
                if draws.random() < pmut:
                    i, j = two_distinct(draws, n)
                    child[i, c], child[j, c] = child[j, c], child[i, c]
            v = crit.evaluate(child, spec)
            run.record(v, child)
            new_pop.append(child)
            new_vals.append(v)
        pop = new_pop
        vals = new_vals

    return run.result(spec, n, k, pmut_effective=pmut)


def match_swaps(cur: list, where: list, target: list, count: int, draws: Draws) -> None:
    """Make up to ``count`` swaps in ``cur`` toward ``target``, in place.

    ``cur`` and ``target`` are lists holding permutations of 1..n, as every
    LHD column does, and ``where`` is the inverse of ``cur`` as a list
    indexed by level: ``cur[where[v]] == v`` for v in 1..n (``where[0]`` is
    unused).  Each swap picks a disagreeing position uniformly (one bounded
    draw over the sorted disagreeing positions) and swaps it with the
    position holding the target's value there, so the Hamming distance to
    the target never increases and drops by at least one per swap.  Both
    ``cur`` and ``where`` are updated.
    """
    diff = list(compress(range(len(cur)), map(ne, cur, target)))
    below = draws.below
    for _ in range(count):
        if not diff:
            break
        r = diff.pop(below(len(diff)))
        v, w = target[r], cur[r]
        r2 = where[v]
        cur[r], cur[r2] = v, w
        where[v], where[w] = r, r2
        if w == target[r2]:
            del diff[bisect.bisect_left(diff, r2)]


def lapso_search(n: int, k: int, spec: CriterionSpec, config: OptimizerConfig) -> SearchResult:
    """Swap-based particle swarm: per column, each particle performs up to
    same-num-p swaps toward its personal best, then up to same-num-g swaps
    toward the global best, then one random swap with probability pmut.
    Personal and global bests update right after the particle is evaluated.

    A particle moves as k column lists with their level-to-row inverses,
    taken from its design once per move; the bests are kept as the column
    lists of the move that found them.
    """
    run = _Run(config, "lapso")
    draws = run.draws
    particles, pvals, spec = _random_starts(config.swarm, n, k, spec, run)
    snp = config.same_num_p if config.same_num_p is not None else math.ceil(n / 4)
    sng = config.same_num_g if config.same_num_g is not None else math.ceil(n / 4)
    pmut = config.pmut if config.pmut is not None else 1.0 / k  # k >= 1: random_lhd checks it

    pbest = [X.T.tolist() for X in particles]
    g_idx = int(np.argmin(pvals))
    gbest = pbest[g_idx]
    gval = pvals[g_idx]
    column_ids, row_ids = np.arange(k)[:, None], np.arange(n)
    inverse = np.empty((k, n + 1), dtype=np.int64)

    while not run.exhausted():
        for pi in range(len(particles)):
            if run.exhausted():
                break
            XT = particles[pi].T
            cols = XT.tolist()
            inverse[column_ids, XT] = row_ids
            where = inverse.tolist()
            for c in range(k):
                cur, wc = cols[c], where[c]
                match_swaps(cur, wc, pbest[pi][c], snp, draws)
                match_swaps(cur, wc, gbest[c], sng, draws)
                if draws.random() < pmut:  # the column's last move: wc is not read again
                    i, j = two_distinct(draws, n)
                    cur[i], cur[j] = cur[j], cur[i]
            X = particles[pi] = np.array(cols, dtype=np.int64).T.copy()
            v = crit.evaluate(X, spec)
            run.record(v, X)
            if v < pvals[pi]:
                pvals[pi] = v
                pbest[pi] = cols
            if v < gval:
                gval = v
                gbest = cols

    return run.result(spec, n, k, same_num_p_effective=snp, same_num_g_effective=sng,
                      pmut_effective=pmut)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def missing_inputs(algorithm: str, **given) -> list[str]:
    """The names in ``NEEDS[algorithm]`` that ``given`` holds as None."""
    return [name for name in NEEDS[algorithm] if name in given and given[name] is None]


def run(config: OptimizerConfig, spec: CriterionSpec, n: int | None = None,
        k: int | None = None, *, slices: int | None = None,
        oa: str | None = None) -> SearchResult:
    """Run ``config.algorithm`` on the inputs ``NEEDS`` names for it.

    ``oa`` resolves through ``load_oa`` and must match a given n, k; its
    name goes into the echo as ``oa_name``, so the run replays from the
    echo alone.  The search functions are looked up when called, so a
    wrapper installed on ``lhdopt.search.<name>_search`` sees this call.
    """
    result = _checked_search(config, spec, n, k, slices, oa)()
    if config.algorithm == "oasa":
        result.config_echo["oa_name"] = oa
    return result


def _checked_search(config: OptimizerConfig, spec: CriterionSpec, n, k, slices, oa):
    """``run``'s input checks, then its search as a call of no arguments."""
    alg = config.algorithm
    missing = missing_inputs(alg, n=n, k=k, weight=config.weight, slices=slices, oa=oa)
    if missing:
        raise InvalidConfigError(f"{alg} needs {' and '.join(missing)}")
    if alg == "oasa":
        arr = load_oa(oa)
        given = [(as_int(v, name, InvalidDimensionError), want)
                 for v, name, want in ((n, "n", arr.N), (k, "k", arr.K)) if v is not None]
        if any(v != want for v, want in given):
            raise InvalidConfigError(
                f"(n, k) = ({n}, {k}) does not match {oa} = ({arr.N}, {arr.K})")
        return lambda: oasa_search(arr, spec, config)
    n, k = as_size(n, k)
    crit.check_columns(spec.kind, k)
    if alg == "sa-multiobj":  # combo at config.weight, from a phi_p or combo spec's p and q
        if spec.kind not in ("phi_p", "combo"):
            raise InvalidConfigError(f"sa-multiobj takes criterion phi_p or combo, got {spec.kind}")
        if spec.kind == "combo" and config.weight != spec.weight:
            raise InvalidConfigError(f"sa-multiobj weight {config.weight} differs from "
                                     f"the combo criterion's {spec.weight}")
        return lambda: sa_multiobj_search(n, k, config.weight, config, p=spec.p, q=spec.q)
    if alg == "sa-sliced":
        structure = make_slices(n, slices)
        return lambda: sliced_sa_search(structure, k, spec, config)
    return lambda: {"sa": sa_search, "ga": ga_search,
                    "lapso": lapso_search}[alg](n, k, spec, config)
