"""Seeded, byte-exact pseudo-random numbers.

Every randomized computation in this package draws from the counter
generator defined here, so that a (seed, counter) pair fully determines
each output bit regardless of batch size, worker count, or platform.
The generator is splitmix64 (Steele, Lea & Flood, OOPSLA 2014), whose
xor-shift-multiply mixer ``_splitmix64`` is the one kernel here:

    state(i) = (seed + (i + 1) * 0x9E3779B97F4A7C15) mod 2^64
    z = state(i)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    out(i) = z ^ (z >> 31)

A uniform double in [0, 1) is (out(i) >> 11) * 2^-53.  The kernel runs on
numpy arrays of counters, so every draw is made in blocks:

* ``Rng(seed).uniforms(n)`` takes the next n counters of one stream, and
  ``Rng(seed).stream()`` yields them one at a time for loops that consume
  an unknown number of draws, drawing ``_STREAM_BLOCK`` at a time;
* ``substream_seeds(seed, start, n)`` gives the seeds of child streams
  start..start+n-1: child_seed(j) = out_{seed}(2^62 + j), which keeps
  distinct streams on disjoint counter sequences for all practical
  purposes;
* ``uniform_matrix(seeds, m)`` gives the first m uniforms of many
  streams at once.

Output i does not depend on how the counters are batched, so a block of
any size gives the bits that one draw at a time would.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_STREAM_BASE = 1 << 62
_STREAM_BLOCK = 1024  # uniforms that Rng.stream draws at a time


def _splitmix64(seeds, counters: np.ndarray) -> np.ndarray:
    """out(i) of the stream seeded by ``seeds`` at each counter i; seeds and
    counters are uint64 and broadcast against each other."""
    z = np.empty(np.broadcast_shapes(np.shape(seeds), counters.shape), dtype=np.uint64)
    shifted = np.empty_like(z)  # the one temporary of the xor-shifts
    with np.errstate(over="ignore"):
        # state = seed + (i + 1) * golden, with the one golden added per seed
        np.multiply(counters, np.uint64(_GOLDEN), out=z)
        z += seeds + np.uint64(_GOLDEN)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            z ^= np.right_shift(z, np.uint64(shift), out=shifted)
            z *= np.uint64(mix)
        z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def _unit(z: np.ndarray) -> np.ndarray:
    """Uniform doubles in [0, 1) from the top 53 bits of each output; z is
    shifted in place."""
    z >>= np.uint64(11)
    out = z.astype(np.float64)
    out *= 2.0 ** -53
    return out


def substream_seeds(seed: int, start: int, n: int) -> np.ndarray:
    """Seeds of the child streams start..start+n-1 of ``seed``."""
    counters = np.arange(_STREAM_BASE + start, _STREAM_BASE + start + n, dtype=np.uint64)
    return _splitmix64(np.uint64(seed), counters)


def uniform_matrix(seeds: np.ndarray, m: int) -> np.ndarray:
    """Row i holds the first m uniforms of the stream seeded by seeds[i]:
    Rng(seeds[i]).uniforms(m), vectorized over streams."""
    seeds = seeds.astype(np.uint64)[:, None]
    return _unit(_splitmix64(seeds, np.arange(m, dtype=np.uint64)))


class Rng:
    """Sequential view of one stream: each draw takes the next counters."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self.counter = 0

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform doubles in [0, 1), consumed as one block."""
        counters = np.arange(self.counter, self.counter + n, dtype=np.uint64)
        self.counter += n
        return _unit(_splitmix64(np.uint64(self.seed), counters))

    def stream(self):
        """The stream's uniforms one at a time, as Python floats; each block
        of _STREAM_BLOCK is consumed whole once its first draw is read."""
        while True:
            yield from self.uniforms(_STREAM_BLOCK).tolist()

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n integers uniform on [0, bound), by 53-bit scaling."""
        if bound <= 0 or bound > (1 << 50):
            raise ValueError("bound out of range")
        return np.floor(self.uniforms(n) * bound).astype(np.int64)
