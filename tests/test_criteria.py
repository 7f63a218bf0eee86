"""Criterion correctness against independent naive oracles, frozen examples,
invariance properties, and incremental-evaluation agreement."""

import numpy as np
import pytest

import oracles
from conftest import random_design
from lhdopt import (
    CriterionSpec,
    RngStream,
    avg_abs_cor,
    column_correlations,
    distance_matrix,
    exchange,
    max_abs_cor,
    maxpro_psi,
    phi_p,
    random_lhd,
    weighted_objective,
)
from lhdopt.criteria import KINDS, Evaluator, avg_sq_cor, evaluate, phi_p_lower_proxy, pin_upper
from lhdopt.errors import (
    DegenerateCoordinateError,
    InvalidConfigError,
    InvalidDesignError,
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

    @pytest.mark.parametrize("p, q, error", [(2.0, 1, InvalidConfigError),
                                             (np.float64(15), 1, InvalidConfigError),
                                             (15, 2.0, UnsupportedExponentError)])
    def test_float_exponents_rejected(self, p, q, error):
        # one check of (p, q) for the spec and phi_p: a float is refused, not truncated
        with pytest.raises(error):
            CriterionSpec("phi_p", p=p, q=q)
        with pytest.raises(error):
            phi_p(np.array([[1, 2], [2, 1]]), p, q)

    def test_numpy_integer_exponents(self):
        X = np.array([[1, 2], [2, 1], [3, 3]])
        assert phi_p(X, np.int64(15), np.int32(2)) == phi_p(X, 15, 2)
        assert CriterionSpec("phi_p", p=np.int64(15), q=np.int32(2)).to_dict()["q"] == 2

    @pytest.mark.parametrize("q", [1, 2])
    def test_equal_rows_are_infinite(self, q):
        spec = CriterionSpec("phi_p", q=q)
        X = np.array([[1, 2], [1, 2], [3, 1]])
        assert phi_p(X, q=q) == np.inf
        # no LHD has two equal rows, and the Evaluator takes LHDs only, also
        # one whose rows are distinct but which a swap could make equal
        for Y in (X, np.array([[1, 2], [1, 3], [2, 2]])):
            with pytest.raises(InvalidDesignError):
                Evaluator(Y, spec)


class TestOneRun:
    @pytest.mark.parametrize("kind", KINDS)
    def test_one_run_is_a_typed_error(self, kind):
        spec = CriterionSpec(kind, weight=0.5 if kind == "combo" else None)
        X = np.array([[1, 2]])
        with pytest.raises(InvalidDimensionError, match="at least 2 runs"):
            evaluate(X, spec)
        with pytest.raises(InvalidDimensionError, match="at least 2 runs"):
            Evaluator(X, spec)


class TestDesignInput:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bad", [1.5, np.nan, np.inf, -np.inf, 1e300])
    def test_non_integer_level_is_a_typed_error(self, kind, bad):
        # a cast to int64 would truncate or wrap these silently
        spec = CriterionSpec(kind, weight=0.5 if kind == "combo" else None)
        X = np.array([[1.0, 2], [2, 1], [3, 3]])
        X[2, 0] = bad
        with pytest.raises(InvalidDesignError):
            evaluate(X, spec)
        with pytest.raises(InvalidDesignError):
            Evaluator(X, spec)

    def test_truncating_float_designs_rejected(self):
        X = [[1.5, 2], [2.5, 1], [3.9, 3]]
        with pytest.raises(InvalidDesignError):
            phi_p(X)
        with pytest.raises(InvalidDesignError):
            maxpro_psi(X)
        for X in ([["1", "2"], ["2", "1"]], [[1, None], [2, 1]], [[1, 2j], [2, 1]],
                  [[1, 2**70], [2, 1]]):
            with pytest.raises(InvalidDesignError):
                phi_p(np.array(X))
        with pytest.raises(InvalidDesignError):
            phi_p(np.array([[1, np.nan], [2, 1]], dtype=object))

    def test_int64_gap_overflow_is_a_typed_error(self):
        # their int64 gap sums wrapped: phi_p gave nan, or 3.25e-19 with a
        # distance of -9.22e18
        huge_q2 = [[1, 1], [2**40, 3], [5, 2**35]]
        with pytest.raises(InvalidDesignError, match="2\\^63"):
            phi_p(huge_q2, 1, 2)
        with pytest.raises(InvalidDesignError, match="2\\^63"):
            distance_matrix(huge_q2, 2)
        huge_q1 = [[-2**62, 1], [2**62, 3], [5, 2]]
        for fn in (phi_p, distance_matrix, maxpro_psi):
            with pytest.raises(InvalidDesignError, match="2\\^63"):
                fn(huge_q1)

    def test_large_levels_within_int64_are_exact(self):
        assert phi_p([[1, 1], [2**60, 3], [5, 2]], 1) == 0.2
        assert distance_matrix([[1, 1], [2**60, 3], [5, 2]], 1)[0, 1] == 2.0**60 + 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_integral_float_design_equals_integer_design(self, kind):
        spec = CriterionSpec(kind, weight=0.5 if kind == "combo" else None)
        X = np.array([[1, 2], [2, 1], [3, 3]])
        assert evaluate(X.astype(np.float64), spec) == evaluate(X, spec)
        assert evaluate(X.tolist(), spec) == evaluate(X, spec)
        assert evaluate(X.astype(object), spec) == evaluate(X, spec)
        assert avg_sq_cor(X.tolist()) == avg_sq_cor(X)

    @pytest.mark.parametrize("fn", [avg_abs_cor, max_abs_cor, avg_sq_cor, phi_p, maxpro_psi])
    def test_one_dimensional_design_is_a_typed_error(self, fn):
        with pytest.raises(InvalidDimensionError, match="2-D"):
            fn(np.array([1, 2, 3]))


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

    @pytest.mark.parametrize("X", [[[10, 20], [20, 10], [30, 30]],  # integral, not 1..n
                                   [[1, 2], [1, 1], [3, 3]],        # a repeated level
                                   [[0, 1], [1, 2], [2, 3]],        # shifted levels
                                   [[1], [1], [3]],                 # one column, repeated
                                   [[1], [3], [5]]])                # one column, not 1..n
    def test_levels_other_than_1_to_n_are_a_typed_error(self, X):
        for fn in (avg_abs_cor, max_abs_cor, avg_sq_cor, column_correlations):
            with pytest.raises(InvalidDesignError, match="permutation of 1..3"):
                fn(X)
        for kind in ("avgcor", "maxcor"):
            with pytest.raises(InvalidDesignError, match="permutation of 1..3"):
                evaluate(X, CriterionSpec(kind))
        for upper in (None, 5.0):  # the check comes before U's
            spec = CriterionSpec("combo", weight=0.5, norm_upper=upper)
            for fn in (weighted_objective, evaluate):
                with pytest.raises(InvalidDesignError, match="permutation of 1..3"):
                    fn(X, spec)
        for kind in KINDS:  # the Evaluator takes LHDs only, whatever the criterion
            spec = CriterionSpec(kind, weight=0.5 if kind == "combo" else None)
            with pytest.raises(InvalidDesignError, match="permutation of 1..3"):
                Evaluator(X, spec)
        # the full distance criteria still take any integer design
        assert np.isfinite(phi_p([[10, 20], [20, 10], [30, 30]]))


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
        # U = phi too, so the degenerate normalization U == L gives 0
        X = np.array([[1, 1], [2, 2]])
        spec = CriterionSpec("combo", weight=0.5)
        assert weighted_objective(X, spec) == pytest.approx(0.5 * 1.0 + 0.5 * 0.0, rel=1e-12)
        # with a real upper proxy the term is (phi - L)/(U - L)
        spec = CriterionSpec("combo", weight=0.5, norm_upper=1.0)
        assert weighted_objective(X, spec) == pytest.approx(0.5 * 1.0 + 0.5 * 0.0, rel=1e-12)
        spec = CriterionSpec("combo", weight=0.25, norm_upper=1.5)
        want = 0.25 * 1.0 + 0.75 * (0.5 - 0.5) / (1.5 - 0.5)
        assert weighted_objective(X, spec) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("q", [1, 2])
    def test_lower_proxy_bounds_every_lhd(self, gen, q):
        for _ in range(200):
            n, k = int(gen.integers(2, 12)), int(gen.integers(1, 6))
            X = random_design(gen, n, k)
            for p in (1, 15, 50):
                assert phi_p(X, p, q) >= phi_p_lower_proxy(n, k, p, q) * (1 - 1e-12)

    def test_upper_proxy_below_lower_raises(self):
        # L = 0.338 here; U = 0.01 would silently drop the phi_p term
        X = np.array([[1, 3], [2, 1], [3, 2], [4, 4]])
        spec = CriterionSpec("combo", weight=0.3, norm_upper=0.01)
        with pytest.raises(InvalidConfigError):
            evaluate(X, spec)
        with pytest.raises(InvalidConfigError):
            Evaluator(X, spec)

    @pytest.mark.parametrize("q", [1, 2])
    def test_upper_proxy_equal_to_lower_gives_zero_term(self, q):
        # both pair distances of a 2-run design equal the mean one: phi_p == L
        X = np.array([[1, 2], [2, 1]])
        want = 0.5 * avg_sq_cor(X)
        for upper in (None, phi_p_lower_proxy(2, 2, 15, q)):
            spec = CriterionSpec("combo", q=q, weight=0.5, norm_upper=upper)
            assert evaluate(X, spec) == want
            assert Evaluator(X, spec).value() == want

    def test_combo_parts_is_a_constant_of_the_dict_form(self):
        spec = CriterionSpec("combo", weight=0.5)
        d = spec.to_dict()
        assert d["combo_parts"] == ["avgsqcor", "phi_p"]
        assert CriterionSpec.from_dict(d) == spec
        del d["combo_parts"]
        assert CriterionSpec.from_dict(d) == spec
        for parts in (["phi_p", "avgsqcor"], ["avgsqcor"], "avgsqcor", 5, None):
            with pytest.raises(InvalidConfigError, match="only the"):
                CriterionSpec.from_dict({**d, "combo_parts": parts})
        with pytest.raises(TypeError):
            CriterionSpec("combo", weight=0.5, combo_parts=("avgsqcor", "phi_p"))

    def test_unknown_dict_field_is_named(self):
        with pytest.raises(InvalidConfigError, match=r"unknown criterion field\(s\) \['foo'\]"):
            CriterionSpec.from_dict({"kind": "phi_p", "foo": 1})

    def test_invalid_weight(self):
        with pytest.raises(InvalidWeightError):
            CriterionSpec("combo", weight=1.5)
        with pytest.raises(InvalidWeightError):
            CriterionSpec("combo")
        for weight in ("0.5", "abc", True, float("nan"), float("inf"), [0.5]):
            with pytest.raises(InvalidWeightError, match="weight must be a finite number"):
                CriterionSpec("combo", weight=weight)
            with pytest.raises(InvalidWeightError):
                CriterionSpec("phi_p", weight=weight)
        assert CriterionSpec("combo", weight=np.float64(0.5)) == CriterionSpec("combo", weight=0.5)

    @pytest.mark.parametrize("upper", ["x", "2.0", True, float("nan"), float("-inf"), [1.0]])
    def test_norm_upper_must_be_a_finite_number(self, upper):
        with pytest.raises(InvalidConfigError, match="norm_upper must be a finite number"):
            CriterionSpec("combo", weight=0.5, norm_upper=upper)
        with pytest.raises(InvalidConfigError):
            CriterionSpec.from_dict({"kind": "combo", "weight": 0.5, "norm_upper": upper})


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
    @staticmethod
    def both_paths(X, spec, c, i, j):
        """The full path and the incremental one of the exchanged design."""
        return (evaluate(exchange(X, c, i, j), spec),
                Evaluator(X, pin_upper(spec, exchange(X, c, i, j))).propose(c, i, j))

    def test_identity_move(self, gen):
        # i == j leaves the design as it is, on the maxpro kernel's i == j path too
        X = random_design(gen, 6, 3)
        for spec in (CriterionSpec("phi_p"), CriterionSpec("maxpro")):
            for got in self.both_paths(X, spec, 1, 2, 2):
                assert got == pytest.approx(evaluate(X, spec), rel=1e-12), spec.kind

    def test_two_run_swap(self):
        X = np.array([[1, 1], [2, 2]])
        spec = CriterionSpec("phi_p")
        swapped = exchange(X, 1, 0, 1)
        for got in self.both_paths(X, spec, 1, 0, 1):
            assert got == pytest.approx(phi_p(swapped), rel=1e-12)

    @pytest.mark.parametrize("q", [1, 2])
    def test_levels_beyond_n(self, q):
        # levels span more than n-1, so the swap creates a pair distance
        # (18 for q=1) past every distance of the starting design
        X = np.array([[1, 5], [10, 1], [5, 10]])
        spec = CriterionSpec("phi_p", q=q)
        Y = exchange(X, 1, 0, 2)
        assert evaluate(Y, spec) == pytest.approx(oracles.phi_p(Y.tolist(), q=q), rel=1e-10)

    @pytest.mark.parametrize("kind", ["phi_p", "maxpro", "avgcor", "maxcor", "combo"])
    def test_agrees_with_full_evaluation(self, gen, kind):
        for _ in range(250):
            n = int(gen.integers(3, 21))
            k = int(gen.integers(2, 9))
            X = random_design(gen, n, k)
            if kind == "combo":  # with U pinned, and without (U of the evaluated design)
                w = float(gen.random())
                specs = [CriterionSpec("combo", weight=w, norm_upper=upper)
                         for upper in (phi_p(X) * 1.5, None)]
            else:
                specs = [CriterionSpec(kind, q=int(gen.integers(1, 3)))]
            c = int(gen.integers(k))
            i, j = int(gen.integers(n)), int(gen.integers(n))
            for spec in specs:
                want = evaluate(exchange(X, c, i, j), spec)
                for got in self.both_paths(X, spec, c, i, j):
                    assert got == pytest.approx(want, rel=1e-10)

    def test_unpinned_combo_scales_by_the_exchanged_design(self):
        X = random_lhd(8, 3, RngStream(1))
        spec = CriterionSpec("combo", weight=0.5)
        want = evaluate(exchange(X, 0, 1, 2), spec)
        assert want == pytest.approx(0.55348, abs=1e-5)
        for got in self.both_paths(X, spec, 0, 1, 2):
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
