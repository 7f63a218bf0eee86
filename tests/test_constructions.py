"""Constructions: size contracts, exact orthogonality, round trips, catalog."""

import warnings
from functools import lru_cache
from itertools import permutations, product

import numpy as np
import pytest

import oracles
from lhdopt import (
    OrthogonalArray,
    RngStream,
    catalog_names,
    good_oa_catalog,
    max_abs_cor,
    oa_to_lhd,
    olhd_butler2001,
    olhd_cioppa2007,
    olhd_lin2009,
    olhd_sun2010,
    olhd_ye1998,
    validate,
    williams_transform,
)
from lhdopt.constructions import collapse_to_oa, validate_oa
from lhdopt.errors import (
    DimensionMismatchError,
    InvalidDesignError,
    InvalidOAError,
    InvalidParameterError,
    UnknownNameError,
)

ORTHO_TOL = 1e-12

ODD_PRIMES_TO_23 = (3, 5, 7, 11, 13, 17, 19, 23)


@lru_cache(maxsize=None)
def butler_oracle(n):
    """The oracle's full-width design; its greedy never looks ahead, so its
    first k columns are its k-column design."""
    return oracles.butler_greedy(n, n - 1)


class TestYe1998:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_contract(self, m):
        X = olhd_ye1998(m)
        n, k = X.shape
        assert (n, k) == (2**m + 1, 2 * m - 2)
        assert validate(X).ok
        assert max_abs_cor(X) <= ORTHO_TOL
        # oracle cross-check on one size
        if m == 3:
            assert oracles.max_abs_cor(X.tolist()) <= ORTHO_TOL

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_mirror_symmetry_and_center(self, m):
        X = olhd_ye1998(m)
        n, k = X.shape
        rows = {tuple(r) for r in X.tolist()}
        assert tuple([(n + 1) // 2] * k) in rows
        for r in rows:
            assert tuple(n + 1 - v for v in r) in rows

    def test_invalid_parameter(self):
        with pytest.raises(InvalidParameterError):
            olhd_ye1998(1)
        with pytest.raises(InvalidParameterError, match="m must be an integer"):
            olhd_ye1998(3.0)
        assert np.array_equal(olhd_ye1998(np.int64(3)), olhd_ye1998(3))


class TestCioppa2007:
    @pytest.mark.parametrize(
        "m,k", [(2, 2), (3, 4), (4, 7), (5, 11)]
    )
    def test_contract(self, m, k):
        X = olhd_cioppa2007(m)
        assert X.shape == (2**m + 1, k)  # k = m + C(m-1, 2)
        assert validate(X).ok
        assert max_abs_cor(X) <= ORTHO_TOL

    def test_invalid_parameter(self):
        with pytest.raises(InvalidParameterError):
            olhd_cioppa2007(0)
        with pytest.raises(InvalidParameterError, match="m must be an integer"):
            olhd_cioppa2007(2.5)


class TestSun2010:
    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("plus_one", [False, True])
    def test_contract(self, c, r, plus_one):
        n = r * 2 ** (c + 1) + (1 if plus_one else 0)
        if n > 64:
            pytest.skip("beyond the exhaustively checked size range")
        X = olhd_sun2010(c, r, plus_one)
        assert X.shape == (n, 2**c)
        assert validate(X).ok
        assert max_abs_cor(X) <= ORTHO_TOL

    def test_examples_from_size_formulas(self):
        assert olhd_sun2010(1, 1, False).shape == (4, 2)
        assert olhd_sun2010(1, 1, True).shape == (5, 2)
        assert olhd_sun2010(2, 3, False).shape == (24, 4)

    def test_invalid_parameter(self):
        with pytest.raises(InvalidParameterError):
            olhd_sun2010(0, 1)
        with pytest.raises(InvalidParameterError):
            olhd_sun2010(1, 0)
        for c, r in ((1.0, 1), (1, 2.0), (True, True), (True, 1), ("1", 1)):
            with pytest.raises(InvalidParameterError, match="must be an integer"):
                olhd_sun2010(c, r)
        assert np.array_equal(olhd_sun2010(np.int32(1), np.uint8(2)), olhd_sun2010(1, 2))


class TestWilliams:
    def test_frozen_examples(self):
        assert list(williams_transform(np.arange(5), 5)) == [0, 2, 4, 3, 1]
        assert list(williams_transform(np.arange(3), 3)) == [0, 2, 1]

    @pytest.mark.parametrize("n", list(range(2, 51)))
    def test_bijection(self, n):
        w = williams_transform(np.arange(n), n)
        assert sorted(w.tolist()) == list(range(n))

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            williams_transform(np.array([0, 5]), 5)
        with pytest.raises(InvalidParameterError, match="n must be an integer"):
            williams_transform([0, 1, 2], 3.5)
        # entries cast exactly, as design levels do: 0.5 and 1.7 are not truncated
        for x in ([0.5, 1.7, 2], [np.nan, 1, 2], ["0", "1", "2"]):
            with pytest.raises(InvalidParameterError, match="entries must be"):
                williams_transform(x, 3)
        assert list(williams_transform([0.0, 1.0, 2.0], 3)) == [0, 2, 1]
        assert list(williams_transform(np.arange(3, dtype=np.int32), 3)) == [0, 2, 1]


class TestButler2001:
    @pytest.mark.parametrize("n,k", [(5, 2), (7, 3)])
    def test_exactly_orthogonal_at_small_width(self, n, k):
        X = olhd_butler2001(n, k)
        assert X.shape == (n, k) and validate(X).ok
        assert max_abs_cor(X) <= ORTHO_TOL

    @pytest.mark.parametrize("n,k", [(n, k) for n in ODD_PRIMES_TO_23 for k in range(1, n)])
    def test_matches_the_exact_greedy_oracle(self, n, k):
        # the first minimizing shift, scored by the running worst correlation
        X = olhd_butler2001(n, k)
        assert X.tolist() == [row[:k] for row in butler_oracle(n)]
        assert X.dtype == np.int64 and X.flags.c_contiguous and not X.flags.writeable

    @pytest.mark.parametrize("n", [5, 7, 11, 13])
    def test_full_width_is_valid_and_nearly_orthogonal(self, n):
        X = olhd_butler2001(n, n - 1)
        assert X.shape == (n, n - 1) and validate(X).ok
        # exact orthogonality at k = n-1 does not exist (see the test below);
        # the Williams construction stays modestly correlated
        assert max_abs_cor(X) <= 0.31

    @pytest.mark.parametrize("n", [3, 5, 7, 11, 13, 17])
    def test_williams_cosine_score_identity(self, n):
        # cos(pi*(w(a) + 1/2)/n) == cos(2*pi*(a + 1/4)/n): the lemma behind
        # the cosine-score orthogonality of acceptance criterion 2b
        a = np.arange(n)
        w = williams_transform(a, n)
        gap = np.cos(np.pi * (w + 0.5) / n) - np.cos(2 * np.pi * (a + 0.25) / n)
        assert np.abs(gap).max() <= 1e-12

    def test_half_width_near_orthogonality(self):
        # frozen from the deterministic shift search: small but nonzero
        assert max_abs_cor(olhd_butler2001(11, 5)) <= 0.05
        assert max_abs_cor(olhd_butler2001(13, 6)) <= 0.03

    def test_non_prime_and_bad_k(self):
        with pytest.raises(InvalidParameterError, match="odd prime"):
            olhd_butler2001(9, 2)
        with pytest.raises(InvalidParameterError, match="odd prime"):
            olhd_butler2001(4, 2)
        with pytest.raises(InvalidParameterError):
            olhd_butler2001(5, 5)
        for n, k in ((7, 2.0), (7.0, 2), (7, True), (True, 1)):
            with pytest.raises(InvalidParameterError, match="must be an integer"):
                olhd_butler2001(n, k)

    def test_no_wide_orthogonal_lhd_exists_at_n5(self):
        """Exhaustive: no 5-run LHD has 3 mutually orthogonal columns.

        Any orthogonal design can be row-permuted so its first column is
        ascending, so checking every permutation pair against the ascending
        column settles existence.  Consequence: exact orthogonality at
        k = n-1 is unattainable for any construction, Williams included.
        """
        col1 = np.arange(-2, 3)
        orthogonal_to_first = [
            np.array(p) for p in permutations(range(-2, 3)) if int(np.array(p) @ col1) == 0
        ]
        assert len(orthogonal_to_first) == 6
        for a in range(len(orthogonal_to_first)):
            for b in range(a + 1, len(orthogonal_to_first)):
                assert int(orthogonal_to_first[a] @ orthogonal_to_first[b]) != 0


class TestCatalog:
    def test_names(self):
        assert "OA(9,4,3,2)" in catalog_names()
        assert len(catalog_names()) == 5

    @pytest.mark.parametrize("name", ["OA(4,3,2,2)", "OA(8,4,2,2)", "OA(9,4,3,2)",
                                      "OA(16,5,4,2)", "OA(25,6,5,2)"])
    def test_load_and_balance(self, name):
        oa = good_oa_catalog(name)
        validate_oa(oa.cells, oa.s, oa.strength)  # every t columns balanced
        n, k, s, _ = map(int, name[3:-1].split(","))
        assert (oa.N, oa.K, oa.s) == (n, k, s)

    def test_declared_strength_is_checked(self):
        # OA(8,4,2,2) has strength 3: every three of its columns are balanced
        cells8 = good_oa_catalog("OA(8,4,2,2)").cells
        assert OrthogonalArray(cells8, 2, 3).strength == 3
        cells9 = good_oa_catalog("OA(9,4,3,2)").cells
        with pytest.raises(InvalidOAError, match="run count 9 incompatible with s=3 at strength 3"):
            OrthogonalArray(cells9, 3, 3)
        for t in (1, 5, 7):
            with pytest.raises(InvalidOAError, match=f"strength must be in 2..4 for 4 columns, got {t}"):
                OrthogonalArray(cells9, 3, t)
        with pytest.raises(InvalidOAError, match="strength must be an integer"):
            OrthogonalArray(cells9, 3, 2.0)
        with pytest.raises(InvalidOAError, match="s must be an integer"):
            OrthogonalArray(cells9, 3.0, 2)
        # column 4 = column 1 xor column 2: every pair balanced, that triple not
        cells = [[a + 1, b + 1, c + 1, (a ^ b) + 1] for a, b, c in product((0, 1), repeat=3)]
        assert OrthogonalArray(cells, 2, 2).strength == 2
        with pytest.raises(InvalidOAError, match="columns 1,2,4 violate strength-3 balance"):
            OrthogonalArray(cells, 2, 3)
        # float cells of integral symbols are checked like integer ones
        validate_oa(np.array(cells, dtype=np.float64), 2, 2)
        with pytest.raises(InvalidOAError, match="OA cells must be finite integers"):
            validate_oa(np.array(cells) + 0.5, 2, 2)

    def test_pair_counts_oa9(self):
        oa = good_oa_catalog("OA(9,4,3,2)")
        for a in range(4):
            for b in range(a + 1, 4):
                pairs = {(int(x), int(y)) for x, y in zip(oa.cells[:, a], oa.cells[:, b])}
                assert len(pairs) == 9  # each ordered pair exactly once

    def test_unknown_name(self):
        with pytest.raises(UnknownNameError):
            good_oa_catalog("OA(7,7,7,7)")

    def test_equality_and_hash_compare_the_cells(self):
        a, b = good_oa_catalog("OA(9,4,3,2)"), good_oa_catalog("OA(9,4,3,2)")
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != good_oa_catalog("OA(4,3,2,2)")
        assert a != OrthogonalArray(a.cells[::-1], 3)  # same runs, other order
        assert a != "OA(9,4,3,2)"


class TestOaToLhd:
    def test_deterministic_fill_example(self):
        oa = OrthogonalArray(np.array([[1, 1], [1, 2], [2, 1], [2, 2]]), 2)
        assert oa_to_lhd(oa).tolist() == [[1, 1], [2, 3], [3, 2], [4, 4]]

    @pytest.mark.parametrize("name", ["OA(4,3,2,2)", "OA(8,4,2,2)", "OA(9,4,3,2)",
                                      "OA(16,5,4,2)", "OA(25,6,5,2)"])
    def test_collapse_round_trip(self, name):
        oa = good_oa_catalog(name)
        X = oa_to_lhd(oa)
        assert validate(X).ok
        assert np.array_equal(collapse_to_oa(X, oa.s), oa.cells)
        for seed in range(20):
            X = oa_to_lhd(oa, RngStream(seed))
            assert validate(X).ok
            assert np.array_equal(collapse_to_oa(X, oa.s), oa.cells)

    def test_collapse_needs_a_symbol_count_dividing_the_runs(self):
        X = oa_to_lhd(good_oa_catalog("OA(9,4,3,2)"))[:, :2]
        for s in (3.5, 3.0, True, "3"):
            with pytest.raises(InvalidParameterError, match="s must be an integer"):
                collapse_to_oa(X, s)
        for s in (0, -3, 2, 20):
            with pytest.raises(InvalidParameterError, match="s must divide the run count 9"):
                collapse_to_oa(X, s)
        assert np.array_equal(collapse_to_oa(X, np.int64(3)), collapse_to_oa(X, 3))
        assert np.array_equal(collapse_to_oa(X, 9), X)
        assert (collapse_to_oa(X, 1) == 1).all()
        # the design is cast like any other: a list is taken, a fraction refused
        assert np.array_equal(collapse_to_oa(X.tolist(), 3), collapse_to_oa(X, 3))
        with pytest.raises(InvalidDesignError):
            collapse_to_oa(X + 0.5, 3)

    def test_unbalanced_symbols_rejected(self):
        with pytest.raises(InvalidOAError):
            OrthogonalArray(np.array([[1, 1], [1, 2], [1, 1], [2, 2]]), 2)
        with pytest.raises(InvalidOAError):
            OrthogonalArray(np.array([[1, 1], [2, 2], [1, 2]]), 2)  # 3 runs, not s^2-divisible

    def test_orthogonal_array_validates_itself(self):
        cells = [[1, 1], [1, 2], [2, 1], [2, 2]]
        oa = OrthogonalArray(cells, 2, 2)
        assert oa.cells.dtype == np.int64 and not oa.cells.flags.writeable
        assert (oa.N, oa.K) == (4, 2)
        source = np.array(cells)
        kept = OrthogonalArray(source, 2)
        source[0, 0] = 2
        assert kept == oa  # the cells are a copy, not a view of the caller's array
        with pytest.raises(InvalidOAError, match="not balanced"):
            OrthogonalArray([[1, 1], [1, 2], [1, 1], [2, 2]], 2, 2)
        with pytest.raises(InvalidOAError, match="column 2 is not balanced over symbols 1..2"):
            OrthogonalArray([[1, 1], [1, 2], [2, 3], [2, 2]], 2, 2)
        with pytest.raises(InvalidOAError, match="run count 0"):
            OrthogonalArray(np.zeros((0, 2), dtype=np.int64), 2)

    @pytest.mark.parametrize("bad", [2.5, np.nan, np.inf])
    def test_cells_that_are_no_integers_are_refused_not_truncated(self, bad):
        cells = np.array([[1, 1], [1, 2], [2, 1], [2, 2]], dtype=np.float64)
        assert OrthogonalArray(cells, 2).cells.tolist() == cells.tolist()
        cells[3, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidOAError, match="OA cells must be finite integers within int64"):
                OrthogonalArray(cells, 2)


class TestLin2009:
    def test_pinned_dimensions_and_orthogonality(self):
        # 5x2 base OLHD + OA(25,6,5,2): f = 3 column pairs, p = 2 base
        # columns -> 2fp = 12 output columns on 25 runs
        base = olhd_ye1998(2)
        oa = good_oa_catalog("OA(25,6,5,2)")
        X = olhd_lin2009(base, oa)
        assert X.shape == (25, 12)
        assert validate(X).ok
        assert max_abs_cor(X) <= ORTHO_TOL

    def test_even_base(self):
        oa16 = good_oa_catalog("OA(16,5,4,2)")
        oa = OrthogonalArray(oa16.cells[:, :4], 4)
        X = olhd_lin2009(olhd_sun2010(1, 1, False), oa)
        assert X.shape == (16, 8)
        assert validate(X).ok
        assert max_abs_cor(X) <= ORTHO_TOL

    def test_nearly_orthogonal_base_stays_nearly_orthogonal(self):
        base = olhd_butler2001(5, 4)  # nearly orthogonal
        oa = good_oa_catalog("OA(25,6,5,2)")
        X = olhd_lin2009(base, oa)
        assert validate(X).ok
        assert max_abs_cor(X) <= max_abs_cor(base) + ORTHO_TOL

    def test_dimension_mismatch(self):
        base = olhd_ye1998(2)  # 5 runs
        with pytest.raises(DimensionMismatchError):
            olhd_lin2009(base, good_oa_catalog("OA(16,5,4,2)"))
        with pytest.raises(DimensionMismatchError):
            # odd column count
            oa = good_oa_catalog("OA(25,6,5,2)")
            olhd_lin2009(base, OrthogonalArray(oa.cells[:, :5], 5))

    def test_non_integral_base_is_rejected_not_truncated(self):
        base = olhd_ye1998(2).astype(np.float64)
        assert olhd_lin2009(base, good_oa_catalog("OA(25,6,5,2)")).shape == (25, 12)
        base[0, 0] += 0.5
        with pytest.raises(DimensionMismatchError):
            olhd_lin2009(base, good_oa_catalog("OA(25,6,5,2)"))
