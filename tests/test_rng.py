"""Draw parity of ``rng.Draws`` with NumPy's ``Generator`` on the same stream.

``Draws`` replays NumPy's bounded-integer (32-bit Lemire on split 64-bit
words) and ``random()`` algorithms on raw Philox words, so for every bound
lhdopt uses both must give the same numbers in any interleaving, and a
``Generator`` lent to ``random_lhd`` or ``oa_to_lhd`` must come back where
NumPy's own calls would have left it.  This file depends on nothing else in
the test suite, so it can run alone against every supported NumPy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhdopt import RngStream, good_oa_catalog, oa_to_lhd, random_lhd
from lhdopt.errors import InvalidParameterError
from lhdopt.rng import Draws, as_draws

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


def state_of(gen: np.random.Generator) -> dict:
    """The bit generator's state with arrays as lists, comparable by ``==``."""
    def plain(v):
        if isinstance(v, dict):
            return {key: plain(x) for key, x in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v
    return plain(gen.bit_generator.state)


def numpy_permutation(gen: np.random.Generator, n: int) -> np.ndarray:
    """``rng.permutation``'s draws made through NumPy."""
    a = np.arange(1, n + 1, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = int(gen.integers(0, i + 1))
        a[i], a[j] = a[j], a[i]
    return a


def twin_generators(kind: str, seed: int, lead: list) -> tuple:
    """Two generators in one state after the draws ``lead``, which may leave a
    32-bit half pending."""
    if kind == "philox":
        pair = (RngStream(seed).generator(), RngStream(seed).generator())
    else:
        pair = (np.random.default_rng(seed), np.random.default_rng(seed))
    for gen in pair:
        for b in lead:
            gen.random() if b == 0 else gen.integers(b)
    return pair


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
    for t in range(30_000):
        replay(draws, gen, ("random", 0) if t % 7 == 0 else ("below", BOUNDS[t % len(BOUNDS)]))
    assert draws.words_used > 4 * 4096


def test_bound_of_one_consumes_nothing():
    draws = RngStream(4).draws()
    assert [draws.below(1) for _ in range(10)] == [0] * 10
    assert draws.below_many(1, 5) == [0] * 5
    assert draws.words_used == 0


@pytest.mark.parametrize("bound", [0, -1, 2**32, 2**40])
def test_bound_outside_32_bits_is_a_typed_error(bound):
    with pytest.raises(InvalidParameterError, match="bound must be in"):
        RngStream(1).draws().below(bound)
    with pytest.raises(InvalidParameterError, match="bound must be in"):
        RngStream(1).draws().below_many(bound, 3)


@SETTINGS
@given(st.sampled_from(("philox", "pcg64")), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from([0, 2, 7, 50]), max_size=5),
       st.integers(2, 40), st.integers(1, 6))
def test_random_lhd_hands_the_generator_back(kind, seed, lead, n, k):
    mine, ref = twin_generators(kind, seed, lead)
    X = random_lhd(n, k, mine)
    want = np.column_stack([numpy_permutation(ref, n) for _ in range(k)])
    assert np.array_equal(X, want)
    assert state_of(mine) == state_of(ref)
    # and the generators go on to draw the same numbers
    assert mine.integers(1000) == ref.integers(1000) and mine.random() == ref.random()


@SETTINGS
@given(st.sampled_from(("philox", "pcg64")), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from([0, 3, 9]), max_size=5),
       st.sampled_from(("OA(9,4,3,2)", "OA(16,5,4,2)")))
def test_oa_to_lhd_hands_the_generator_back(kind, seed, lead, name):
    oa = good_oa_catalog(name)
    mine, ref = twin_generators(kind, seed, lead)
    X = oa_to_lhd(oa, mine)
    reps = oa.N // oa.s
    for c in range(oa.K):
        for m in range(1, oa.s + 1):
            fine = np.arange((m - 1) * reps + 1, m * reps + 1)[numpy_permutation(ref, reps) - 1]
            assert np.array_equal(X[oa.cells[:, c] == m, c], fine)
    assert state_of(mine) == state_of(ref)


def test_generator_is_handed_back_when_the_block_raises():
    mine, ref = twin_generators("philox", 8, [5])
    with pytest.raises(InvalidParameterError):
        with as_draws(mine) as draws:
            draws.below(10)
            draws.below(0)
    ref.integers(10)
    assert state_of(mine) == state_of(ref)


def test_generator_without_split_words_is_refused():
    gen = np.random.Generator(np.random.MT19937(1))
    with pytest.raises(InvalidParameterError, match="MT19937"):
        random_lhd(4, 2, gen)
    with pytest.raises(InvalidParameterError, match="expected RngStream"):
        random_lhd(4, 2, 7)
