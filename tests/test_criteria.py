"""Criterion correctness against independent naive oracles, frozen examples,
invariance properties, and incremental-evaluation agreement."""

import numpy as np
import pytest

import oracles
from conftest import random_design
from lhdopt import (
    CriterionSpec,
    avg_abs_cor,
    column_correlations,
    delta_after_exchange,
    exchange,
    max_abs_cor,
    maxpro_psi,
    phi_p,
    weighted_objective,
)
from lhdopt.criteria import Evaluator, avg_sq_cor, evaluate, phi_p_lower_proxy
from lhdopt.errors import (
    DegenerateCoordinateError,
    InvalidConfigError,
    InvalidDimensionError,
    InvalidWeightError,
    TooFewColumnsError,
    UnsupportedExponentError,
)


class TestPhiP:
    def test_two_run_exact_half(self):
        # single pair at distance 2: (2^-15)^(1/15) = 1/2
        assert phi_p(np.array([[1, 1], [2, 2]]), p=15, q=1) == pytest.approx(0.5, abs=1e-15)

    def test_three_run_frozen(self):
        X = np.array([[1, 2], [2, 1], [3, 3]])
        expected = oracles.phi_p(X.tolist())  # (2^-15 + 2*3^-15)^(1/15)
        assert expected == pytest.approx(0.50015, abs=5e-5)
        assert phi_p(X) == pytest.approx(expected, rel=1e-12)

    def test_matches_oracle_random(self, gen):
        for _ in range(60):
            X = random_design(gen, int(gen.integers(2, 15)), int(gen.integers(1, 6)))
            for q in (1, 2):
                assert phi_p(X, 15, q) == pytest.approx(
                    oracles.phi_p(X.tolist(), 15, q), rel=1e-12
                )

    def test_large_p_does_not_underflow(self):
        X = np.tile(np.arange(1, 21)[:, None], (1, 3))  # distances up to 57
        v = phi_p(X, p=200, q=1)
        assert np.isfinite(v) and v > 0.0

    def test_large_p_approaches_min_distance(self, gen):
        # 1/phi_150 within 5% of d_min on random 8x3 designs
        for _ in range(25):
            X = random_design(gen, 8, 3)
            dmin = min(oracles.pair_distances(X.tolist(), 1))
            assert abs(1.0 / phi_p(X, 150, 1) - dmin) / dmin <= 0.05

    def test_ordering_in_min_distance(self):
        # same distance multiset except a smaller minimum => larger phi_p
        base = [2.0, 3.0, 3.0]
        worse = [1.0, 3.0, 3.0]
        assert oracles.phi_from_distances(worse) > oracles.phi_from_distances(base)
        # realized by 3-run designs: [[1,2],[2,1],[3,3]] vs k=1 chain [[1],[2],[3]]
        tight = np.array([[1], [2], [3]])  # distances 1,1,2
        loose = np.array([[1, 2], [2, 1], [3, 3]])  # distances 2,3,3
        assert phi_p(tight) > phi_p(loose)

    def test_invalid_exponents(self):
        with pytest.raises(UnsupportedExponentError):
            phi_p(np.array([[1], [2]]), q=3)
        with pytest.raises(InvalidConfigError):
            phi_p(np.array([[1], [2]]), p=0)

    def test_bool_exponents_rejected(self):
        # isinstance(True, int) holds, but True is not an exponent
        with pytest.raises(InvalidConfigError):
            CriterionSpec("phi_p", p=True)
        with pytest.raises(InvalidConfigError):
            phi_p(np.array([[1], [2]]), p=True)
        with pytest.raises(UnsupportedExponentError):
            CriterionSpec("phi_p", q=True)
        with pytest.raises(UnsupportedExponentError):
            phi_p(np.array([[1], [2]]), q=True)

    @pytest.mark.parametrize("q", [1, 2])
    def test_equal_rows_are_infinite(self, q):
        spec = CriterionSpec("phi_p", q=q)
        X = np.array([[1, 2], [1, 2], [3, 1]])
        assert phi_p(X, q=q) == np.inf
        assert Evaluator(X, spec).value() == np.inf
        # repeated levels, distinct rows: a swap can make two rows equal and back
        Y = np.array([[1, 2], [1, 3], [2, 2]])
        ev = Evaluator(Y, spec)
        assert ev.propose(1, 1, 2) == np.inf  # row 1 becomes [1, 2], equal to row 0
        ev.commit(1, 1, 2)
        assert ev.value() == np.inf
        assert ev.propose(1, 1, 2) == pytest.approx(phi_p(Y, q=q), rel=1e-12)


class TestMaxpro:
    def test_trivial_pairs(self):
        assert maxpro_psi(np.array([[1, 2], [2, 1]])) == pytest.approx(1.0, abs=1e-15)
        assert maxpro_psi(np.array([[1, 1], [2, 2]])) == pytest.approx(1.0, abs=1e-15)

    def test_three_run_frozen(self):
        X = np.array([[1, 2], [2, 1], [3, 3]])
        # oracle: ((1/1 + 1/4 + 1/4)/3)^(1/2) = sqrt(0.5)
        expected = oracles.maxpro_psi(X.tolist())
        assert expected == pytest.approx(np.sqrt(0.5), rel=1e-12)
        assert maxpro_psi(X) == pytest.approx(expected, rel=1e-12)

    def test_matches_oracle_random(self, gen):
        for _ in range(60):
            X = random_design(gen, int(gen.integers(2, 15)), int(gen.integers(1, 6)))
            assert maxpro_psi(X) == pytest.approx(oracles.maxpro_psi(X.tolist()), rel=1e-12)

    def test_degenerate_coordinate(self):
        with pytest.raises(DegenerateCoordinateError):
            maxpro_psi(np.array([[1, 1], [1, 2]]))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_pair_product_raises(self):
        # rows 1 and 40 differ by 39 in all 97 columns: 39^194 > 1.8e308
        X = np.tile(np.arange(1, 41)[:, None], (1, 97))
        with pytest.raises(InvalidDimensionError):
            maxpro_psi(X)
        with pytest.raises(InvalidDimensionError):
            Evaluator(X, CriterionSpec("maxpro"))
        assert np.isfinite(maxpro_psi(X[:, :96]))  # 39^192 < 1.8e308


class TestCorrelations:
    def test_identical_columns(self):
        C = column_correlations(np.array([[1, 1], [2, 2]]))
        assert C[0, 1] == 1.0

    def test_reversed_columns(self):
        C = column_correlations(np.array([[1, 2], [2, 1]]))
        assert C[0, 1] == -1.0

    def test_hand_computed_half(self):
        C = column_correlations(np.array([[1, 1], [2, 3], [3, 2]]))
        assert C[0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_matches_oracle_random(self, gen):
        for _ in range(40):
            X = random_design(gen, int(gen.integers(2, 15)), int(gen.integers(2, 6)))
            C = column_correlations(X)
            O = np.array(oracles.correlations(X.tolist()))
            assert np.allclose(C, O, rtol=1e-12, atol=1e-12)
            assert avg_abs_cor(X) == pytest.approx(oracles.avg_abs_cor(X.tolist()), rel=1e-12)
            assert max_abs_cor(X) == pytest.approx(oracles.max_abs_cor(X.tolist()), rel=1e-12)

    def test_summary_values(self):
        X = np.array([[1, 1], [2, 2]])
        assert avg_abs_cor(X) == 1.0 and max_abs_cor(X) == 1.0
        X = np.array([[1, 1], [2, 3], [3, 2]])
        assert avg_abs_cor(X) == pytest.approx(0.5) and max_abs_cor(X) == pytest.approx(0.5)

    def test_too_few_columns(self):
        with pytest.raises(TooFewColumnsError):
            avg_abs_cor(np.array([[1], [2]]))
        with pytest.raises(TooFewColumnsError):
            max_abs_cor(np.array([[1], [2]]))


class TestWeightedObjective:
    def test_weight_one_is_avg_sq_cor(self, gen):
        X = random_design(gen, 8, 3)
        spec = CriterionSpec("combo", weight=1.0)
        assert weighted_objective(X, spec) == pytest.approx(avg_sq_cor(X), rel=1e-12)

    def test_weight_zero_is_normalized_phi(self, gen):
        X = random_design(gen, 8, 3)
        upper = phi_p(X) * 2.0
        spec = CriterionSpec("combo", weight=0.0, norm_upper=upper)
        lower = phi_p_lower_proxy(8, 3, 15, 1)
        want = (phi_p(X) - lower) / (upper - lower)
        assert weighted_objective(X, spec) == pytest.approx(want, rel=1e-12)

    def test_two_run_documented_proxies(self):
        # [[1,1],[2,2]]: avg squared correlation 1; phi = 0.5 equals the lower
        # proxy L = 1/(k(n+1)/3) = 0.5 and without an explicit upper proxy
        # U = phi too, so the degenerate normalization clamps to 0
        X = np.array([[1, 1], [2, 2]])
        spec = CriterionSpec("combo", weight=0.5)
        assert weighted_objective(X, spec) == pytest.approx(0.5 * 1.0 + 0.5 * 0.0, rel=1e-12)
        # with a real upper proxy the term is (phi - L)/(U - L)
        spec = CriterionSpec("combo", weight=0.5, norm_upper=1.0)
        assert weighted_objective(X, spec) == pytest.approx(0.5 * 1.0 + 0.5 * 0.0, rel=1e-12)
        spec = CriterionSpec("combo", weight=0.25, norm_upper=1.5)
        want = 0.25 * 1.0 + 0.75 * (0.5 - 0.5) / (1.5 - 0.5)
        assert weighted_objective(X, spec) == pytest.approx(want, rel=1e-12)

    def test_invalid_weight(self):
        with pytest.raises(InvalidWeightError):
            CriterionSpec("combo", weight=1.5)
        with pytest.raises(InvalidWeightError):
            CriterionSpec("combo")


class TestInvariances:
    @pytest.mark.parametrize("kind", ["phi_p", "maxpro", "avgcor", "maxcor"])
    def test_row_and_column_permutation(self, gen, kind):
        for _ in range(20):
            X = random_design(gen, int(gen.integers(3, 12)), int(gen.integers(2, 5)))
            spec = CriterionSpec(kind)
            v = evaluate(X, spec)
            rows = gen.permutation(X.shape[0])
            cols = gen.permutation(X.shape[1])
            assert evaluate(X[rows][:, cols], spec) == pytest.approx(v, rel=1e-10)

    @pytest.mark.parametrize("kind", ["phi_p", "maxpro", "avgcor", "maxcor"])
    def test_reflection(self, gen, kind):
        for _ in range(20):
            n = int(gen.integers(3, 12))
            X = random_design(gen, n, int(gen.integers(2, 5)))
            spec = CriterionSpec(kind)
            v = evaluate(X, spec)
            Y = X.copy()
            c = int(gen.integers(X.shape[1]))
            Y[:, c] = n + 1 - Y[:, c]
            assert evaluate(Y, spec) == pytest.approx(v, rel=1e-10)


class TestDeltaAfterExchange:
    def test_identity_move(self, gen):
        X = random_design(gen, 6, 3)
        spec = CriterionSpec("phi_p")
        assert delta_after_exchange(X, spec, 1, 2, 2) == pytest.approx(
            phi_p(X), rel=1e-12
        )

    def test_two_run_swap(self):
        X = np.array([[1, 1], [2, 2]])
        spec = CriterionSpec("phi_p")
        swapped = exchange(X, 1, 0, 1)
        assert delta_after_exchange(X, spec, 1, 0, 1) == pytest.approx(
            phi_p(swapped), rel=1e-12
        )

    @pytest.mark.parametrize("q", [1, 2])
    def test_levels_beyond_n(self, q):
        # levels span more than n-1, so the swap creates a pair distance
        # (18 for q=1) past every distance of the starting design
        X = np.array([[1, 5], [10, 1], [5, 10]])
        spec = CriterionSpec("phi_p", q=q)
        assert delta_after_exchange(X, spec, 1, 0, 2) == pytest.approx(
            evaluate(exchange(X, 1, 0, 2), spec), rel=1e-10
        )

    @pytest.mark.parametrize("kind", ["phi_p", "maxpro", "avgcor", "maxcor", "combo"])
    def test_agrees_with_full_evaluation(self, gen, kind):
        for _ in range(250):
            n = int(gen.integers(3, 21))
            k = int(gen.integers(2, 9))
            X = random_design(gen, n, k)
            if kind == "combo":
                spec = CriterionSpec(
                    "combo", weight=float(gen.random()), norm_upper=phi_p(X) * 1.5
                )
            else:
                spec = CriterionSpec(kind, q=int(gen.integers(1, 3)))
            c = int(gen.integers(k))
            i, j = int(gen.integers(n)), int(gen.integers(n))
            got = delta_after_exchange(X, spec, c, i, j)
            want = evaluate(exchange(X, c, i, j), spec)
            assert got == pytest.approx(want, rel=1e-10)

    def test_evaluator_long_run_agreement(self, gen):
        # a long accept/reject stream must not drift away from full evaluation
        for kind in ("phi_p", "maxpro", "maxcor"):
            X = random_design(gen, 12, 4)
            spec = CriterionSpec(kind)
            ev = Evaluator(X, spec)
            for _ in range(5000):
                c = int(gen.integers(4))
                i, j = int(gen.integers(12)), int(gen.integers(12))
                ev.propose(c, i, j)
                if gen.random() < 0.5:
                    ev.commit(c, i, j)
            assert ev.value() == pytest.approx(evaluate(ev.X, spec), rel=1e-10)
