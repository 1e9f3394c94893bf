"""Reference splitmix64 on Python ints, one output at a time.

``heislab.rng`` runs the generator only on numpy blocks of counters; this
oracle follows the textbook recurrence (Steele, Lea & Flood, OOPSLA 2014)
draw by draw, so the block kernel must agree with it bit for bit.
"""

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_STREAM_BASE = 1 << 62


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def raw64(seed: int, index: int) -> int:
    """The index-th 64-bit output of the stream seeded by ``seed``."""
    return mix64((seed + (index + 1) * _GOLDEN) & _MASK)


def substream_seed(seed: int, stream_index: int) -> int:
    """Seed of child stream ``stream_index`` of ``seed``."""
    return raw64(seed & _MASK, _STREAM_BASE + stream_index)


class ScalarRng:
    """One stream, drawn one output at a time."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self.counter = 0

    def u64(self) -> int:
        out = raw64(self.seed, self.counter)
        self.counter += 1
        return out

    def uniform(self) -> float:
        return (self.u64() >> 11) * 2.0 ** -53
