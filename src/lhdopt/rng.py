"""Deterministic randomness for all stochastic operations.

Every randomized operation in the package draws from a counter-based Philox
(4x64, 10 rounds) generator keyed by a ``(seed, stream)`` pair.  Identical
pairs produce identical draw sequences on every platform, and distinct stream
ids give statistically independent streams for the same seed, which is how
the benchmark harness isolates replications.

Bounded integer draws use :meth:`numpy.random.Generator.integers` (Lemire
rejection sampling) and permutations use an explicit descending Fisher-Yates
so the exact draw sequence is documented, not an implementation detail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

_U64 = 2**64


@dataclass(frozen=True)
class RngStream:
    """A named random stream: 64-bit seed plus 64-bit stream id."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name, v in (("seed", self.seed), ("stream", self.stream)):
            if not isinstance(v, (int, np.integer)) or not 0 <= int(v) < _U64:
                raise InvalidParameterError(
                    f"{name} must be an integer in [0, 2^64), got {v!r}"
                )

    def generator(self) -> np.random.Generator:
        """A fresh Philox generator positioned at the start of the stream."""
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def as_generator(rng: "RngStream | np.random.Generator") -> np.random.Generator:
    """Accept either a stream description or an already-built generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise InvalidParameterError(f"expected RngStream or Generator, got {type(rng)!r}")


def permutation(gen: np.random.Generator, n: int) -> np.ndarray:
    """Uniform random permutation of 1..n via descending Fisher-Yates.

    Consumes exactly n-1 bounded integer draws: for i = n-1, ..., 1 draw
    j ~ U{0..i} and swap positions i and j.
    """
    a = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = int(gen.integers(0, i + 1))
        a[i], a[j] = a[j], a[i]
    return np.array(a, dtype=np.int64)


def two_distinct(gen: np.random.Generator, n: int) -> tuple[int, int]:
    """Uniform ordered pair of distinct indices in 0..n-1 (two draws)."""
    i = int(gen.integers(0, n))
    j = int(gen.integers(0, n - 1))
    if j >= i:
        j += 1
    return i, j
