"""Tests for the design-matrix core: generation, moves, distances, slices."""

import numpy as np
import pytest

from lhdopt import (
    RngStream,
    SliceStructure,
    distance_matrix,
    exchange,
    is_slice_valid,
    make_slices,
    phi_p,
    random_lhd,
    validate,
)
from lhdopt.design import as_design, rearranged_columns
from lhdopt.errors import (
    IndexOutOfRangeError,
    IndivisibleRunsError,
    InvalidDesignError,
    InvalidDimensionError,
    InvalidParameterError,
    UnsupportedExponentError,
)

from conftest import random_design


class TestRandomLhd:
    def test_two_run_single_column(self):
        for seed in range(20):
            X = random_lhd(2, 1, RngStream(seed))
            assert X.tolist() in ([[1], [2]], [[2], [1]])

    def test_determinism_bit_identical(self):
        a = random_lhd(5, 3, RngStream(7))
        b = random_lhd(5, 3, RngStream(7))
        assert a.tobytes() == b.tobytes()

    def test_distinct_streams_differ(self):
        a = random_lhd(20, 4, RngStream(7, 0))
        b = random_lhd(20, 4, RngStream(7, 1))
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("n,k", [(1, 2), (0, 1), (2, 0), (5, -1), (3.5, 2), (4.0, 2),
                                     (4, 2.0), (True, 2), ("4", 2)])
    def test_invalid_dimensions(self, n, k):
        with pytest.raises(InvalidDimensionError):
            random_lhd(n, k, RngStream(0))

    def test_numpy_integer_dimensions(self):
        X = random_lhd(np.int64(5), np.int32(3), RngStream(4))
        assert np.array_equal(X, random_lhd(5, 3, RngStream(4)))

    def test_permutation_closure(self, gen):
        for _ in range(50):
            n = int(gen.integers(2, 30))
            k = int(gen.integers(1, 8))
            X = random_lhd(n, k, RngStream(int(gen.integers(2**32))))
            assert validate(X).ok

    def test_output_is_read_only(self):
        X = random_lhd(4, 2, RngStream(1))
        with pytest.raises(ValueError):
            X[0, 0] = 9

    def test_bad_stream_values(self):
        with pytest.raises(InvalidParameterError):
            RngStream(-1)
        with pytest.raises(InvalidParameterError):
            RngStream(0, 2**64)


class TestExchange:
    def test_single_column(self):
        out = exchange(np.array([[1], [2]]), 0, 0, 1)
        assert out.tolist() == [[2], [1]]

    def test_second_column(self):
        X = np.array([[1, 1], [2, 2], [3, 3]])
        out = exchange(X, 1, 0, 2)
        assert out.tolist() == [[1, 3], [2, 2], [3, 1]]
        assert X.tolist() == [[1, 1], [2, 2], [3, 3]]  # input untouched

    def test_involution(self, gen):
        for _ in range(100):
            n, k = int(gen.integers(2, 12)), int(gen.integers(1, 5))
            X = random_design(gen, n, k)
            c, i, j = int(gen.integers(k)), int(gen.integers(n)), int(gen.integers(n))
            back = exchange(exchange(X, c, i, j), c, i, j)
            assert np.array_equal(back, X)
            assert validate(exchange(X, c, i, j)).ok

    @pytest.mark.parametrize("c,i,j", [(2, 0, 1), (-1, 0, 1), (0, 3, 0), (0, 0, -1)])
    def test_out_of_range(self, c, i, j):
        with pytest.raises(IndexOutOfRangeError):
            exchange(np.array([[1, 1], [2, 2], [3, 3]]), c, i, j)

    @pytest.mark.parametrize("c,i,j", [(0.5, 0, 1), (0, True, 1), (0, 1.0, 2)])
    def test_non_integer_index_is_a_typed_error(self, c, i, j):
        X = np.array([[1, 1], [2, 2], [3, 3]])
        with pytest.raises(IndexOutOfRangeError, match="must be an integer"):
            exchange(X, c, i, j)

    def test_numpy_integer_indices_are_accepted(self):
        X = np.array([[1, 1], [2, 2], [3, 3]])
        out = exchange(X, np.int64(1), np.int32(0), np.uint8(2))
        assert out.tolist() == exchange(X, 1, 0, 2).tolist() == [[1, 3], [2, 2], [3, 1]]

    def test_levels_go_through_the_design_check(self):
        assert exchange([[1.0, 2.0], [2.0, 1.0]], 0, 0, 1).tolist() == [[2, 2], [1, 1]]
        with pytest.raises(InvalidDesignError):
            exchange([[1.5, 2], [2, 1]], 0, 0, 1)  # would truncate 1.5 to 1


class TestDistanceMatrix:
    def test_rectangular(self):
        D = distance_matrix(np.array([[1, 1], [2, 2]]), q=1)
        assert D[0, 1] == D[1, 0] == 2.0 and D[0, 0] == 0.0

    def test_euclidean(self):
        D = distance_matrix(np.array([[1, 1], [2, 2]]), q=2)
        assert D[0, 1] == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_hand_evaluated(self):
        D = distance_matrix(np.array([[1, 2], [2, 1], [3, 3]]), q=1)
        assert (D[0, 1], D[0, 2], D[1, 2]) == (2.0, 3.0, 3.0)

    def test_unsupported_exponent(self):
        # q=True would read as q=1, and 2.0 is refused as CriterionSpec refuses it
        for q in (3, 0, True, 2.0, "2"):
            with pytest.raises(UnsupportedExponentError):
                distance_matrix(np.array([[1], [2]]), q=q)

    def test_non_integral_levels_are_a_typed_error(self):
        # truncated to [[1, 2], [2, 1], [3, 3]], d_02 would read 3 where it is 2.5
        with pytest.raises(InvalidDesignError):
            distance_matrix([[1.5, 2], [2.5, 1], [3, 3]])
        assert distance_matrix([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])[0, 2] == 3.0

    def test_min_distance_at_least_one(self, gen):
        for _ in range(30):
            X = random_design(gen, int(gen.integers(2, 15)), int(gen.integers(1, 6)))
            for q in (1, 2):
                D = distance_matrix(X, q)
                off = D[np.triu_indices(X.shape[0], k=1)]
                assert off.min() >= 1.0


class TestAsDesign:
    def test_uint64_levels_beyond_int64_are_a_typed_error(self):
        # cast to int64, 2**64 - 1 would read as level -1
        X = np.array([[1, 2**64 - 1], [2, 1], [3, 2]], dtype=np.uint64)
        with pytest.raises(InvalidDesignError, match="within int64"):
            phi_p(X)
        with pytest.raises(InvalidDesignError, match="within int64"):
            as_design(np.array([[1], [2**63]], dtype=np.uint64))
        ok = np.array([[1, 3], [2, 1], [3, 2]], dtype=np.uint64)
        assert np.array_equal(as_design(ok), ok.astype(np.int64))
        assert as_design(np.array([[1], [2**63 - 1]], dtype=np.uint64))[1, 0] == 2**63 - 1

    def test_int64_design_is_taken_as_it_is(self):
        X = np.array([[1, 3], [2, 1], [3, 2]], dtype=np.int64)
        assert as_design(X) is X


class TestValidate:
    def test_pass(self):
        assert validate(np.array([[1, 1], [2, 2]])).ok

    def test_repeat(self):
        rep = validate(np.array([[1, 1], [1, 2]]))
        assert not rep.ok
        assert rep.column_ok == [False, True]
        assert "column 1: repeats level 1" in rep.problems

    def test_out_of_range_levels(self):
        rep = validate(np.array([[0], [1]]))
        assert not rep.ok
        assert "column 1: levels not in 1..2" in rep.problems

    def test_single_run_rejected(self):
        rep = validate(np.array([[1, 1]]))
        assert not rep.ok and "need at least 2 runs" in rep.problems

    @pytest.mark.parametrize("X", [[[1.5, 2], [2, 1]], [[1, np.nan], [2, 1]], [["1", "2"], ["2", "1"]]])
    def test_non_integral_levels_are_reported_not_raised(self, X):
        rep = validate(np.array(X))
        assert not rep.ok and rep.column_ok == [False, False]
        assert "design levels must" in rep.problems[0]


class TestRearrangedColumns:
    def test_per_column_answer(self):
        X = np.array([[2, 1, 1], [1, 1, 3], [3, 3, 2]])
        assert rearranged_columns(X, np.arange(1, 4)).tolist() == [True, False, True]
        assert rearranged_columns(X, np.array([1, 1, 3])).tolist() == [False, True, False]

    def test_other_length_is_no_rearrangement(self):
        assert rearranged_columns(np.array([[1], [2]]), np.arange(1, 4)).tolist() == [False]


class TestSlices:
    def test_contiguous_assignment(self):
        s = make_slices(6, 2)
        assert s.m == 3 and list(s.assignment) == [1, 1, 1, 2, 2, 2]
        s = make_slices(6, 3)
        assert s.m == 2 and list(s.assignment) == [1, 1, 2, 2, 3, 3]

    def test_indivisible(self):
        with pytest.raises(IndivisibleRunsError):
            make_slices(7, 2)
        with pytest.raises(IndivisibleRunsError):
            make_slices(6, 1)

    @pytest.mark.parametrize("n,t", [(6.0, 2), (6, 2.0), (6, True), ("6", 2)])
    def test_non_integer_counts_are_a_typed_error(self, n, t):
        with pytest.raises(InvalidDimensionError, match="must be an integer"):
            make_slices(n, t)

    def test_numpy_integer_counts(self):
        s = make_slices(np.int64(6), np.int64(2))
        assert type(s.m) is int and s.m == 3

    def test_slice_validity_takes_any_design_input(self):
        s = make_slices(4, 2)
        assert is_slice_valid([[1, 2], [3, 4], [2, 1], [4, 3]], s)
        assert not is_slice_valid([[1, 2], [3, 4], [2, 1]], s)  # 3 runs, not 4
        with pytest.raises(InvalidDimensionError):
            is_slice_valid(np.array([1, 3, 2, 4]), s)
        with pytest.raises(InvalidDesignError):
            is_slice_valid([[1.5, 2], [3, 4], [2, 1], [4, 3]], s)

    def test_slice_validity_with_uneven_assignment(self):
        # a slice structure checks itself, so no search meets an uneven one
        with pytest.raises(IndivisibleRunsError, match="exactly 2 rows"):
            SliceStructure(t=2, m=2, assignment=np.array([1, 1, 1, 2]))

    @pytest.mark.parametrize("assignment", [[1, 2, 1], [1, 2, 1, 2, 1], [0, 1, 2, 2], [1, 2, 3, 3]])
    def test_assignment_gives_each_slice_m_rows(self, assignment):
        with pytest.raises(IndivisibleRunsError):
            SliceStructure(t=2, m=2, assignment=np.array(assignment))
        assert SliceStructure(t=2, m=2, assignment=np.array([2, 1, 1, 2])).n == 4

    def test_slice_validity_check(self):
        s = make_slices(4, 2)
        good = np.array([[1, 2], [3, 4], [2, 1], [4, 3]])  # bins per slice: {1,2}
        assert is_slice_valid(good, s)
        bad = np.array([[1, 2], [2, 4], [3, 1], [4, 3]])  # slice 1 bins {1,1} in col 0
        assert validate(bad).ok and not is_slice_valid(bad, s)
