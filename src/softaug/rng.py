"""Deterministic counter-based random number generation.

Every stochastic component in this package draws from a SplitMix64
stream.  Child streams are derived from a base seed and integer keys
through the SplitMix64 finalizer, so sentence i (or sweep cell j)
always sees the same stream no matter how work is split across
processes.

The hot paths draw in blocks: the n-th state of a stream is its seed
plus n times the golden ratio (mod 2^64), so ``random_block``,
``derive_block`` and ``stream_block`` compute many states and their
finalizers at once in wrapping uint64 arithmetic.  Each gives the
scalar stream's draws bit for bit.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_SALT = 0x5851F42D4C957F2D


def check_seed(seed: int) -> int:
    """The range check for a seed from outside the program: streams take
    seeds mod 2^64, so any other value would alias one in [0, 2^64)."""
    if not 0 <= seed <= _MASK:
        raise ValueError(f"seed must lie in [0, 2^64), not {seed}")
    return seed


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
    """Tiny seedable generator; identical output on every platform.

    ``SplitMix64(seed)`` after n draws is ``SplitMix64(seed + n * golden
    ratio)``: a stream's state is its seed advanced by its draw count.
    """

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

    def peek(self, count: int) -> np.ndarray:
        """The next *count* ``random()`` draws as one float64 array, bit for
        bit, without consuming them."""
        return random_block(self._state, max(count, 0))

    def skip(self, count: int) -> None:
        """Consume *count* draws unseen: the state ``count`` calls of
        ``random()`` leave."""
        self._state = (self._state + _GOLDEN * max(count, 0)) & _MASK

    def random_array(self, count: int) -> np.ndarray:
        """``[random() for _ in range(count)]``, bit for bit, as one float64
        array; the stream ends in the state those calls leave."""
        draws = self.peek(count)
        self.skip(count)
        return draws

    def randint_block(self, n: int, count: int) -> np.ndarray:
        """``[randint(n) for _ in range(count)]``, bit for bit, as one int64
        array; the stream ends in the state those calls leave."""
        if count > 0 and n <= 0:
            raise ValueError("randint needs n >= 1")
        return (self.random_array(count) * n).astype(np.int64)


def _mix(state: np.ndarray) -> np.ndarray:
    """``_finalize`` of every uint64 state, wrapping."""
    z = (state ^ (state >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _u64_block(seed: int, start: int, n: int) -> np.ndarray:
    """``next_u64`` draws start .. start + n - 1 of ``SplitMix64(seed)``."""
    steps = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    return _mix(np.uint64(seed & _MASK) + np.uint64(_GOLDEN) * steps)


def _uniforms(z: np.ndarray) -> np.ndarray:
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def random_block(seed: int, n: int) -> np.ndarray:
    """The first n ``SplitMix64(seed).random()`` draws, bit for bit, as one
    float64 array."""
    return _uniforms(_u64_block(seed, 0, n))


def derive_block(seed: int, start: int, n: int) -> np.ndarray:
    """``[derive(seed, i) for i in range(start, start + n)]`` as one uint64
    array: for consecutive keys those are the u64 stream of
    ``SplitMix64(derive(seed))``."""
    return _u64_block(derive(seed), start, n)


def stream_block(seeds: np.ndarray, lengths: np.ndarray, skip: np.ndarray | int = 0) -> np.ndarray:
    """The ``lengths[j]`` ``random()`` draws of each ``SplitMix64(seeds[j])``
    that follow its first ``skip[j]`` (none by default), concatenated in
    order, bit for bit, as one float64 array."""
    lengths = np.asarray(lengths, dtype=np.int64)
    firsts = np.cumsum(lengths) - lengths - np.asarray(skip, dtype=np.int64)
    steps = np.arange(1, int(lengths.sum()) + 1, dtype=np.int64) - np.repeat(firsts, lengths)
    state = np.repeat(np.asarray(seeds, dtype=np.uint64), lengths) + np.uint64(_GOLDEN) * steps.astype(np.uint64)
    return _uniforms(_mix(state))
