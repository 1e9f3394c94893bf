"""Seeded, byte-exact pseudo-random numbers.

Every randomized computation in this package draws from the counter
generator defined here, so that a (seed, stream, counter) triple fully
determines each output bit regardless of batch size, worker count, or
platform.  The generator is the splitmix64 xor-shift-multiply mixer:

    state(i) = (seed + (i + 1) * 0x9E3779B97F4A7C15) mod 2^64
    z = state(i)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    out(i) = z ^ (z >> 31)

A uniform double in [0, 1) is (out(i) >> 11) * 2^-53.  Stream splitting
hashes the parent seed with the stream index through the same mixer:
child_seed = out_{seed}(2^62 + stream_index), which keeps distinct
streams on disjoint counter sequences for all practical purposes.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_STREAM_BASE = 1 << 62


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def raw64(seed: int, index: int) -> int:
    """The index-th 64-bit output for this seed (pure function)."""
    return _mix64((seed + (index + 1) * _GOLDEN) & _MASK)


def _raw64_block(seed: int, start: int, n: int) -> np.ndarray:
    idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed) + idx * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


def substream_seeds(seed: int, start: int, n: int) -> np.ndarray:
    """Seeds of substreams start..start+n-1, identical to Rng.substream."""
    return _raw64_block(seed, _STREAM_BASE + start, n)


def uniform_matrix(seeds: np.ndarray, m: int) -> np.ndarray:
    """Row i holds the first m uniforms of the stream seeded by seeds[i].

    Bit-identical to Rng(seeds[i]).uniforms(m), vectorized over streams.
    """
    idx = np.arange(1, m + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = seeds.astype(np.uint64)[:, None] + idx[None, :] * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


class Rng:
    """Sequential view over the counter generator.

    Instances are cheap; ``substream(i)`` derives an independent child
    whose outputs do not depend on how much the parent has consumed.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self.counter = 0

    def substream(self, stream_index: int) -> "Rng":
        if stream_index < 0:
            raise ValueError("stream index must be nonnegative")
        return Rng(raw64(self.seed, _STREAM_BASE + stream_index))

    def u64(self) -> int:
        out = raw64(self.seed, self.counter)
        self.counter += 1
        return out

    def uniform(self) -> float:
        return (self.u64() >> 11) * 2.0 ** -53

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform doubles in [0, 1), consumed as one block."""
        block = _raw64_block(self.seed, self.counter, n)
        self.counter += n
        return (block >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n integers uniform on [0, bound), by 53-bit scaling."""
        if bound <= 0 or bound > (1 << 50):
            raise ValueError("bound out of range")
        return np.floor(self.uniforms(n) * bound).astype(np.int64)
