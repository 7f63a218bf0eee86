"""Draw parity of ``rng.Draws`` with NumPy's ``Generator`` on the same stream.

``Draws`` replays NumPy's bounded-integer (32-bit Lemire on split 64-bit
words) and ``random()`` algorithms on raw Philox words, so for every bound
lhdopt uses both must give the same numbers in any interleaving, and
``random_lhd`` and ``oa_to_lhd`` on a stream must draw what NumPy would.
This file depends on nothing else in the test suite, so it can run alone
against every supported NumPy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhdopt import RngStream, good_oa_catalog, oa_to_lhd, random_lhd
from lhdopt.errors import InvalidParameterError
from lhdopt.rng import Draws

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# every bound class: trivial, tiny, powers of two and their neighbours, the
# sizes the searches use, and the top of the 32-bit range
BOUNDS = sorted({1, 2, 3, 50, 1000, 2**31 + 7, 2**32 - 1}
                | {v for e in range(1, 33) for v in (2**e - 1, 2**e, 2**e + 1) if v < 2**32})

streams = st.builds(RngStream, st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
ops = st.one_of(
    st.tuples(st.just("below"), st.sampled_from(BOUNDS)),
    st.tuples(st.just("random"), st.just(0)),
    # long vectors carry the sequence across the 4096-word blocks
    st.tuples(st.just("many"), st.sampled_from(BOUNDS), st.integers(0, 3000)),
)


def replay(draws: Draws, gen: np.random.Generator, op) -> None:
    if op[0] == "below":
        assert draws.below(op[1]) == gen.integers(op[1])
    elif op[0] == "random":
        assert draws.random() == gen.random()
    else:
        _, b, size = op
        assert draws.below_many(b, size) == gen.integers(0, b, size=size).tolist()


def numpy_permutation(gen: np.random.Generator, n: int) -> np.ndarray:
    """``rng.permutation``'s draws made through NumPy."""
    a = np.arange(1, n + 1, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = int(gen.integers(0, i + 1))
        a[i], a[j] = a[j], a[i]
    return a


@SETTINGS
@given(streams, st.lists(ops, max_size=40))
def test_draws_equal_generator(stream, sequence):
    draws, gen = stream.draws(), stream.generator()
    for op in sequence:
        replay(draws, gen, op)
    # both are at the same place afterwards, halves included
    replay(draws, gen, ("below", 2**31 + 7))
    replay(draws, gen, ("random", 0))


def test_draws_equal_generator_across_blocks():
    draws, gen = RngStream(11, 3).draws(), RngStream(11, 3).generator()
    # 30000 operations take at least about 17k words, more than 4 x 4096
    for t in range(30_000):
        replay(draws, gen, ("random", 0) if t % 7 == 0 else ("below", BOUNDS[t % len(BOUNDS)]))


def test_bound_of_one_consumes_nothing():
    draws = RngStream(4).draws()
    assert [draws.below(1) for _ in range(10)] == [0] * 10
    assert draws.below_many(1, 5) == [0] * 5
    assert draws.random() == RngStream(4).draws().random()


@pytest.mark.parametrize("bound", [0, -1, 2**32, 2**40])
def test_bound_outside_32_bits_is_a_typed_error(bound):
    with pytest.raises(InvalidParameterError, match="bound must be in"):
        RngStream(1).draws().below(bound)
    with pytest.raises(InvalidParameterError, match="bound must be in"):
        RngStream(1).draws().below_many(bound, 3)


@SETTINGS
@given(st.integers(0, 2**64 - 1), st.integers(2, 40), st.integers(1, 6))
def test_random_lhd_draws_numpy_permutations(seed, n, k):
    gen = RngStream(seed).generator()
    want = np.column_stack([numpy_permutation(gen, n) for _ in range(k)])
    assert np.array_equal(random_lhd(n, k, RngStream(seed)), want)


@SETTINGS
@given(st.integers(0, 2**64 - 1), st.sampled_from(("OA(9,4,3,2)", "OA(16,5,4,2)")))
def test_oa_to_lhd_draws_numpy_permutations(seed, name):
    oa = good_oa_catalog(name)
    X = oa_to_lhd(oa, RngStream(seed))
    gen = RngStream(seed).generator()
    reps = oa.N // oa.s
    for c in range(oa.K):
        for m in range(1, oa.s + 1):
            fine = np.arange((m - 1) * reps + 1, m * reps + 1)[numpy_permutation(gen, reps) - 1]
            assert np.array_equal(X[oa.cells[:, c] == m, c], fine)


@pytest.mark.parametrize("seed,stream,name", [(True, 0, "seed"), (0, True, "stream"),
                                              (False, 0, "seed")])
def test_a_bool_is_no_seed_or_stream(seed, stream, name):
    # True would otherwise give the draws of seed 1
    with pytest.raises(InvalidParameterError,
                       match=rf"^{name} must be an integer in \[0, 2\^64\), got (True|False)$"):
        RngStream(seed, stream)


@pytest.mark.parametrize("rng", [np.random.default_rng(1), 7], ids=["generator", "int"])
def test_only_streams_and_draws_are_accepted(rng):
    with pytest.raises(InvalidParameterError, match="expected RngStream or Draws"):
        random_lhd(4, 2, rng)
    with pytest.raises(InvalidParameterError, match="expected RngStream or Draws"):
        oa_to_lhd(good_oa_catalog("OA(9,4,3,2)"), rng)
