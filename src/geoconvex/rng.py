"""Counter-based deterministic random streams.

Every (seed, sample index) pair owns an independent stream, so samples can
be generated in any order or split across any number of workers while
producing bit-identical draws.  The mixing function is the splitmix64
finalizer; a stream's j-th value is

    value(seed, index, j) = mix(base + (j + 1) * GOLDEN)
    base                  = mix(mix(seed + GOLDEN) ^ (index + 1) * GOLDEN)

with all arithmetic modulo 2^64.  The scalar and numpy paths below compute
the same function and are tested against each other.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U_GOLDEN = np.uint64(GOLDEN)

#: scale turning the top 53 bits of a u64 into a float in [0, 1)
_UNIT = 2.0 ** -53


def mix64(x: int) -> int:
    """splitmix64 finalizer of a 64-bit value."""
    x &= _MASK
    x ^= x >> 30
    x = (x * _MIX1) & _MASK
    x ^= x >> 27
    x = (x * _MIX2) & _MASK
    return x ^ (x >> 31)


def stream_base(seed: int, index: int) -> int:
    s = mix64((seed + GOLDEN) & _MASK)
    return mix64((s ^ ((index + 1) * GOLDEN)) & _MASK)


def value_at(seed: int, index: int, pos: int) -> int:
    """The pos-th u64 of stream (seed, index)."""
    return mix64((stream_base(seed, index) + (pos + 1) * GOLDEN) & _MASK)


def _mix64_np(x: np.ndarray) -> np.ndarray:
    x = x ^ (x >> np.uint64(30))
    x = x * _MIX1
    x = x ^ (x >> np.uint64(27))
    x = x * _MIX2
    return x ^ (x >> np.uint64(31))


def base_array(seed: int, indices: np.ndarray) -> np.ndarray:
    """Vectorized stream_base over an array of sample indices."""
    indices = indices.astype(np.uint64, copy=False)
    s = np.uint64(mix64((seed + GOLDEN) & _MASK))
    return _mix64_np(s ^ ((indices + np.uint64(1)) * _U_GOLDEN))


def unit_array(bases: np.ndarray, pos) -> np.ndarray:
    """Uniform [0,1) draws at position pos, an int or one per base."""
    step = ((pos.astype(np.uint64) + np.uint64(1)) * _U_GOLDEN if isinstance(pos, np.ndarray)
            else np.uint64(((pos + 1) * GOLDEN) & _MASK))
    u = _mix64_np(bases + step)
    return (u >> np.uint64(11)).astype(np.float64) * _UNIT


class Stream:
    """Sequential scalar view of one counter stream."""

    def __init__(self, seed: int, index: int = 0):
        self._base = stream_base(seed, index)
        self._pos = 0

    def next_u64(self) -> int:
        v = mix64((self._base + (self._pos + 1) * GOLDEN) & _MASK)
        self._pos += 1
        return v

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * ((self.next_u64() >> 11) * _UNIT)

    def normal(self) -> float:
        # Box-Muller; u1 is bumped off zero so log() stays finite.
        u1 = max((self.next_u64() >> 11) * _UNIT, _UNIT)
        u2 = (self.next_u64() >> 11) * _UNIT
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def randint(self, n: int) -> int:
        return self.next_u64() % n
