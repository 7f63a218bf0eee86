"""Optimizers: oracle optimality at desk scale, determinism, budget honesty,
structural closure of every visited design, and algorithm-specific behavior."""

from itertools import permutations

import numpy as np
import pytest

from lhdopt import (
    CriterionSpec,
    OptimizerConfig,
    RngStream,
    ga_search,
    good_oa_catalog,
    is_slice_valid,
    lapso_search,
    make_slices,
    max_abs_cor,
    oa_to_lhd,
    oasa_search,
    phi_p,
    sa_multiobj_search,
    sa_search,
    sliced_sa_search,
    validate,
)
from lhdopt.constructions import collapse_to_oa, make_oa
from lhdopt.criteria import evaluate
from lhdopt.errors import InvalidConfigError, InvalidOAError
from lhdopt.rng import two_distinct
from lhdopt.search import match_swaps

PHI = CriterionSpec("phi_p")


def brute_force_phi_optimum(n: int, p: int = 15, q: int = 1) -> float:
    """Enumerate all 2-column LHDs with column 1 fixed ascending."""
    col1 = np.arange(1, n + 1)
    return min(
        phi_p(np.column_stack([col1, perm]), p, q)
        for perm in permutations(range(1, n + 1))
    )


def cfg(alg, budget=20000, seed=1, **kw):
    return OptimizerConfig(algorithm=alg, max_evaluations=budget, seed=RngStream(seed), **kw)


class TestCommonContract:
    @pytest.mark.parametrize("fn,alg", [(sa_search, "sa"), (ga_search, "ga"),
                                        (lapso_search, "lapso")])
    def test_result_invariants(self, fn, alg):
        r = fn(6, 3, PHI, cfg(alg, budget=2000))
        assert validate(r.best).ok
        assert r.evaluations_used <= 2000
        vals = [v for _, v in r.trace]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert r.trace[-1] == (r.evaluations_used, r.value)
        assert r.config_echo["algorithm"] == alg

    @pytest.mark.parametrize("fn,alg", [(sa_search, "sa"), (ga_search, "ga"),
                                        (lapso_search, "lapso")])
    def test_determinism(self, fn, alg):
        a = fn(6, 3, PHI, cfg(alg, budget=3000, seed=42))
        b = fn(6, 3, PHI, cfg(alg, budget=3000, seed=42))
        assert a.best.tobytes() == b.best.tobytes()
        assert a.value == b.value and a.trace == b.trace

    @pytest.mark.parametrize("fn,alg", [(sa_search, "sa"), (ga_search, "ga"),
                                        (lapso_search, "lapso")])
    def test_criterion_genericity(self, fn, alg):
        # same optimizer code path works for phi_p and maxpro
        for spec in (PHI, CriterionSpec("maxpro")):
            r = fn(8, 3, spec, cfg(alg, budget=1500))
            assert validate(r.best).ok
            assert r.value == pytest.approx(evaluate(r.best, spec), rel=1e-9)

    def test_criterion_genericity_structured_optimizers(self):
        # the restricted-move annealers are criterion-generic too
        for spec in (PHI, CriterionSpec("maxpro")):
            oa9 = good_oa_catalog("OA(9,4,3,2)")
            r = oasa_search(oa9, spec, cfg("oasa", budget=800))
            assert r.value == pytest.approx(evaluate(r.best, spec), rel=1e-9)
            r = sliced_sa_search(make_slices(8, 2), 3, spec, cfg("sa-sliced", budget=800))
            assert r.value == pytest.approx(evaluate(r.best, spec), rel=1e-9)

    def test_closure_every_visited_design(self):
        seen = []
        sa_search(6, 3, PHI, cfg("sa", budget=300), inspect=seen.append)
        assert len(seen) == 300  # start + one per proposal
        assert all(validate(X).ok for X in seen)

    def test_invalid_configs(self):
        with pytest.raises(InvalidConfigError):
            OptimizerConfig(algorithm="nope", max_evaluations=10, seed=RngStream(0))
        with pytest.raises(InvalidConfigError):
            OptimizerConfig(algorithm="sa", max_evaluations=0, seed=RngStream(0))
        with pytest.raises(InvalidConfigError):
            OptimizerConfig(algorithm="ga", max_evaluations=10, seed=RngStream(0),
                            population=5)
        with pytest.raises(InvalidConfigError):
            OptimizerConfig(algorithm="sa", max_evaluations=10, seed=RngStream(0),
                            alpha=1.5)
        with pytest.raises(InvalidConfigError):
            OptimizerConfig(algorithm="lapso", max_evaluations=10, seed=RngStream(0),
                            swarm=1)


class TestSa:
    def test_two_run_value_is_one(self):
        r = sa_search(2, 1, PHI, cfg("sa", budget=50))
        assert r.value == pytest.approx(1.0, rel=1e-12)

    def test_reaches_brute_force_optimum(self):
        opt = brute_force_phi_optimum(4)
        r = sa_search(4, 2, PHI, cfg("sa", budget=5000, seed=3))
        assert r.value == pytest.approx(opt, rel=1e-9)

    def test_random_column_mode(self):
        r = sa_search(5, 2, PHI, cfg("sa", budget=2000, column_mode="random"))
        assert validate(r.best).ok

    @pytest.mark.parametrize("n,k,p", [(16, 5, 50), (60, 10, 200)])
    def test_large_p_reports_exact_value(self, n, k, p):
        # regressions of the raw pair-sum state: p=50 at 16x5 raised a TypeError
        # (a drifted negative sum to the power 1/p), p=200 at 60x10 reported 0.0
        spec = CriterionSpec("phi_p", p=p)
        r = sa_search(n, k, spec, cfg("sa", budget=4000, column_mode="random"))
        assert r.value > 0.0
        assert r.value == pytest.approx(evaluate(r.best, spec), rel=1e-10)


class TestOasa:
    def test_every_visited_design_collapses(self):
        oa = good_oa_catalog("OA(9,4,3,2)")
        seen = []
        oasa_search(oa, PHI, cfg("oasa", budget=500), inspect=seen.append)
        for X in seen:
            assert validate(X).ok
            assert np.array_equal(collapse_to_oa(X, oa.s), oa.cells)

    def test_three_column_oa_start_included(self):
        oa9 = good_oa_catalog("OA(9,4,3,2)")
        oa = make_oa(oa9.cells[:, :3], s=3)
        start_value = phi_p(oa_to_lhd(oa))
        r = oasa_search(oa, PHI, cfg("oasa", budget=400))
        assert r.value <= start_value + 1e-12

    def test_invalid_oa(self):
        with pytest.raises(InvalidOAError):
            make_oa(np.array([[1, 1], [2, 2], [1, 2]]), s=2)

    def test_determinism(self):
        oa = good_oa_catalog("OA(9,4,3,2)")
        a = oasa_search(oa, PHI, cfg("oasa", budget=800, seed=5))
        b = oasa_search(oa, PHI, cfg("oasa", budget=800, seed=5))
        assert a.best.tobytes() == b.best.tobytes() and a.value == b.value


class TestSaMultiobj:
    def test_weight_zero_matches_plain_sa_on_combo(self):
        c1 = cfg("sa-multiobj", budget=2000, seed=9)
        r1 = sa_multiobj_search(6, 3, 0.0, c1)
        spec = CriterionSpec("combo", weight=0.0)
        r2 = sa_search(6, 3, spec, cfg("sa", budget=2000, seed=9))
        assert np.array_equal(r1.best, r2.best) and r1.value == r2.value

    def test_reports_constituents(self):
        r = sa_multiobj_search(7, 3, 0.9, cfg("sa-multiobj", budget=2000))
        for key in ("avg_sq_cor", "phi_p", "max_abs_cor"):
            assert key in r.extras
        assert r.extras["max_abs_cor"] >= 0.0

    def test_orthogonality_pressure(self):
        # near-orthogonal 9x2 designs exist; w=1 should find a decorrelated one
        r = sa_multiobj_search(9, 2, 1.0, cfg("sa-multiobj", budget=12000, seed=2))
        assert max_abs_cor(r.best) <= 0.05

    def test_determinism(self):
        a = sa_multiobj_search(6, 3, 0.5, cfg("sa-multiobj", budget=1500, seed=4))
        b = sa_multiobj_search(6, 3, 0.5, cfg("sa-multiobj", budget=1500, seed=4))
        assert a.best.tobytes() == b.best.tobytes() and a.value == b.value

    def test_invalid_weight(self):
        with pytest.raises(InvalidConfigError):
            sa_multiobj_search(6, 3, 1.2, cfg("sa-multiobj", budget=100))


class TestSlicedSa:
    def test_every_visited_design_is_slice_valid(self):
        slices = make_slices(4, 2)
        seen = []
        sliced_sa_search(slices, 2, PHI, cfg("sa-sliced", budget=400), inspect=seen.append)
        assert seen
        for X in seen:
            assert is_slice_valid(X, slices)

    def test_result_is_slice_valid(self):
        slices = make_slices(8, 2)
        r = sliced_sa_search(slices, 3, PHI, cfg("sa-sliced", budget=3000))
        assert is_slice_valid(r.best, slices)
        assert r.evaluations_used <= 3000

    def test_t_must_be_at_least_two(self):
        from lhdopt.errors import IndivisibleRunsError

        with pytest.raises(IndivisibleRunsError):
            make_slices(6, 1)

    def test_determinism(self):
        slices = make_slices(6, 3)
        a = sliced_sa_search(slices, 2, PHI, cfg("sa-sliced", budget=1000, seed=8))
        b = sliced_sa_search(slices, 2, PHI, cfg("sa-sliced", budget=1000, seed=8))
        assert a.best.tobytes() == b.best.tobytes() and a.value == b.value


class TestGa:
    def test_reaches_brute_force_optimum(self):
        opt = brute_force_phi_optimum(4)
        r = ga_search(4, 2, PHI, cfg("ga", budget=10000, seed=2))
        assert r.value == pytest.approx(opt, rel=1e-9)

    def test_no_variation_keeps_identical_population_fixed(self):
        # all-identical population with pmut=0: crossover mixes equal columns
        seen = []
        config = cfg("ga", budget=60, population=4, pmut=0.0)
        # run on n=2, k=1 where only two designs exist; seed the population
        # by monkeypatching is overkill -- instead exploit that crossover of
        # identical parents is the identity and mutation is off, so once the
        # population is uniform it stays uniform; n=2,k=1 reaches uniformity
        # whenever the elite dominates, and every child must equal a parent
        ga_search(2, 1, PHI, config, inspect=seen.append)
        assert all(X.tolist() in ([[1], [2]], [[2], [1]]) for X in seen)

    def test_every_individual_passes_validate(self):
        seen = []
        ga_search(6, 3, PHI, cfg("ga", budget=500), inspect=seen.append)
        assert len(seen) == 500
        assert all(validate(X).ok for X in seen)

    def test_crossover_between_identical_designs_is_identity(self):
        # direct unit check of the documented closure argument
        base = np.array([[1, 1], [2, 2], [3, 3]])
        mask = np.array([True, False])
        child = np.where(mask[None, :], base, base)
        assert np.array_equal(child, base)


class TestLapso:
    def test_reaches_brute_force_optimum(self):
        opt = brute_force_phi_optimum(4)
        r = lapso_search(4, 2, PHI, cfg("lapso", budget=10000, seed=5))
        assert r.value == pytest.approx(opt, rel=1e-9)

    def test_stationary_when_no_moves_defined(self):
        config = cfg("lapso", budget=200, same_num_p=0, same_num_g=0, pmut=0.0)
        seen = []
        r = lapso_search(5, 2, PHI, config, inspect=seen.append)
        firsts = [X.tobytes() for X in seen[:10]]
        # swarm of 10: later sweeps revisit exactly the initial particles
        for t, X in enumerate(seen):
            assert X.tobytes() == firsts[t % 10]
        init_vals = [phi_p(np.frombuffer(b, dtype=np.int64).reshape(5, 2)) for b in firsts]
        assert r.value == pytest.approx(min(init_vals), rel=1e-12)

    def test_match_swaps_hamming_non_increasing(self, gen):
        for _ in range(200):
            n = int(gen.integers(2, 15))
            col = gen.permutation(n) + 1
            target = gen.permutation(n) + 1
            h0 = int(np.sum(col != target))
            count = int(gen.integers(0, 5))
            out = match_swaps(col, target, count, gen)
            h1 = int(np.sum(out != target))
            assert h1 <= h0
            assert sorted(out.tolist()) == list(range(1, n + 1))
            if count > 0 and h0 > 0:
                assert h1 < h0

    def test_every_particle_passes_validate(self):
        seen = []
        lapso_search(6, 3, PHI, cfg("lapso", budget=400), inspect=seen.append)
        assert all(validate(X).ok for X in seen)


class TestBudgetAccounting:
    @pytest.mark.parametrize("alg,fn", [("sa", sa_search), ("ga", ga_search),
                                        ("lapso", lapso_search)])
    def test_exact_budget_use(self, alg, fn):
        for budget in (1, 7, 100):
            r = fn(5, 2, PHI, cfg(alg, budget=budget))
            assert r.evaluations_used <= budget
            assert r.evaluations_used >= min(budget, 1)

    def test_two_distinct_rows(self, gen):
        for _ in range(500):
            n = int(gen.integers(2, 10))
            i, j = two_distinct(gen, n)
            assert i != j and 0 <= i < n and 0 <= j < n
