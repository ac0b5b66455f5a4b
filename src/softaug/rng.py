"""Deterministic counter-based random number generation.

Every stochastic component in this package draws from a SplitMix64
stream.  Child streams are derived from a base seed and integer keys
through the SplitMix64 finalizer, so sentence i (or sweep cell j)
always sees the same stream no matter how work is split across
processes.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_SALT = 0x5851F42D4C957F2D


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive(seed: int, *keys: int) -> int:
    """Fold integer keys into *seed*, returning a decorrelated child seed."""
    x = _finalize((seed & _MASK) ^ _SALT)
    for k in keys:
        x = _finalize((x + _GOLDEN * ((k & _MASK) + 1)) & _MASK)
    return x


class SplitMix64:
    """Tiny seedable generator; identical output on every platform."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _finalize(self._state)

    def random(self) -> float:
        """Uniform float64 in [0, 1) with 53 significand bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        return int(self.random() * n)

    def randint_block(self, n: int, count: int) -> np.ndarray:
        """``[randint(n) for _ in range(count)]``, bit for bit, as one int64
        array; the stream ends in the state those calls leave."""
        count = max(count, 0)
        if count and n <= 0:
            raise ValueError("randint needs n >= 1")
        draws = random_block(self._state, count)
        self._state = (self._state + _GOLDEN * count) & _MASK
        return (draws * n).astype(np.int64)


def random_block(seed: int, n: int) -> np.ndarray:
    """The first n ``SplitMix64(seed).random()`` draws, bit for bit, as one
    float64 array.

    The i-th state is seed + i * golden ratio (mod 2^64), so every state
    and its finalizer are computed at once in wrapping uint64 arithmetic.
    """
    state = np.uint64(seed & _MASK) + np.uint64(_GOLDEN) * np.arange(1, n + 1, dtype=np.uint64)
    z = (state ^ (state >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
