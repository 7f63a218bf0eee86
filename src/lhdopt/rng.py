"""Deterministic randomness for all stochastic operations.

Every randomized operation in the package draws from a counter-based Philox
(4x64, 10 rounds) bit generator keyed by a ``(seed, stream)`` pair.  Identical
pairs produce identical draw sequences on every platform, and distinct stream
ids give statistically independent streams for the same seed, which is how
the benchmark harness isolates replications.

The draw sequence is defined here, on Philox's raw 64-bit output alone
(``bit_generator.random_raw``), by a ``Draws`` consumer:

- a bounded draw ``below(b)``, uniform on 0..b-1 for 1 <= b < 2^32, takes
  32-bit halves of the raw words, the lower half of a word first and its
  upper half kept pending for the next bounded draw, and maps each half u
  by Lemire's multiply-and-reject (Lemire 2019, ACM TOMACS 29(1)): with
  m = u * b, return m >> 32 unless the low 32 bits of m fall below
  2^32 mod b, in which case the next half is tried.  ``below(1)`` takes
  nothing; any other bound raises ``InvalidParameterError``;
- ``random()`` takes one whole word w and returns (w >> 11) * 2^-53; a
  pending half stays pending;
- ``below_many(b, count)`` is ``count`` bounded draws in order.

These are the rules NumPy's ``Generator.integers`` (default int64 dtype,
bounds below 2^32) and ``Generator.random`` apply to the same bit generator,
so a ``Draws`` and a ``Generator`` on one stream give the same numbers;
``tests/test_rng.py`` checks that on every supported NumPy.  Permutations
are a descending Fisher-Yates over bounded draws.  Randomness enters the
API as an ``RngStream`` or a ``Draws`` only (``as_draws``); a caller who
wants NumPy's API on the same numbers uses ``RngStream.generator()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

_U64 = 2**64
_U32 = 2**32
_LOW32 = _U32 - 1
_BLOCK = 4096         # raw words pulled from the bit generator at a time
_DOUBLE = 2.0**-53


@dataclass(frozen=True)
class RngStream:
    """A named random stream: 64-bit seed plus 64-bit stream id."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name, v in (("seed", self.seed), ("stream", self.stream)):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) \
                    or not 0 <= int(v) < _U64:
                raise InvalidParameterError(
                    f"{name} must be an integer in [0, 2^64), got {v!r}"
                )

    def bit_generator(self) -> np.random.Philox:
        """A fresh Philox bit generator positioned at the start of the stream."""
        return np.random.Philox(key=np.array([self.seed, self.stream], dtype=np.uint64))

    def generator(self) -> np.random.Generator:
        """A NumPy generator on the stream, for callers that want NumPy's API."""
        return np.random.Generator(self.bit_generator())

    def draws(self) -> "Draws":
        """The stream's draw sequence, from its start."""
        return Draws(self.bit_generator())


class Draws:
    """Bounded integers and uniforms replayed from a bit generator's raw words.

    Words are pulled in blocks of 4096 into a list.  ``_half`` is the upper
    half of the last word split for a bounded draw while it is pending, and
    -1 once it is spent.
    """

    __slots__ = ("_bitgen", "_words", "_pos", "_half")

    def __init__(self, bit_generator):
        self._bitgen = bit_generator
        self._words: list[int] = []
        self._pos = 0
        self._half = -1

    def _refill(self) -> None:
        self._words = self._bitgen.random_raw(_BLOCK).tolist()
        self._pos = 0

    def below(self, b: int) -> int:
        """Uniform integer in 0..b-1, as ``Generator.integers(b)`` draws it;
        ``b`` is a Python int (a NumPy one could overflow ``u * b``)."""
        if b < 2 or b >= _U32:
            if b == 1:
                return 0
            raise InvalidParameterError(f"bound must be in [1, 2^32), got {b}")
        while True:
            u = self._half
            if u < 0:
                pos = self._pos
                if pos == len(self._words):
                    self._refill()
                    pos = 0
                w = self._words[pos]
                self._pos = pos + 1
                self._half = w >> 32
                u = w & _LOW32
            else:
                self._half = -1
            m = u * b
            low = m & _LOW32
            # the rejection threshold 2^32 mod b is below b, so the modulo
            # is only taken for the rare low < b
            if low >= b or low >= _U32 % b:
                return m >> 32

    def below_many(self, b: int, count: int) -> list[int]:
        """``count`` bounded draws in order, as ``Generator.integers(b, size=count)``."""
        below = self.below
        return [below(b) for _ in range(count)]

    def random(self) -> float:
        """Uniform double in [0, 1) from one whole word, as ``Generator.random()``."""
        pos = self._pos
        if pos == len(self._words):
            self._refill()
            pos = 0
        self._pos = pos + 1
        return (self._words[pos] >> 11) * _DOUBLE


def as_draws(rng: RngStream | Draws) -> Draws:
    """The draws a caller's randomness stands for: a ``Draws`` as it is, or
    an ``RngStream``'s sequence from its start."""
    if isinstance(rng, Draws):
        return rng
    if isinstance(rng, RngStream):
        return rng.draws()
    raise InvalidParameterError(f"expected RngStream or Draws, got {type(rng)!r}")


def permutation(draws: Draws, n: int) -> np.ndarray:
    """Uniform random permutation of 1..n via descending Fisher-Yates.

    Consumes exactly n-1 bounded draws: for i = n-1, ..., 1 draw
    j ~ U{0..i} and swap positions i and j.
    """
    a = list(range(1, n + 1))
    below = draws.below
    for i in range(n - 1, 0, -1):
        j = below(i + 1)
        a[i], a[j] = a[j], a[i]
    return np.array(a, dtype=np.int64)


def two_distinct(draws: Draws, n: int) -> tuple[int, int]:
    """Uniform ordered pair of distinct indices in 0..n-1 (two draws)."""
    i = draws.below(n)
    j = draws.below(n - 1)
    if j >= i:
        j += 1
    return i, j
