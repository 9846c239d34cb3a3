"""Deterministic random number generation.

Every stochastic element of the workbench (field init, SfM label noise,
trajectory heading noise, procedural textures) draws from a xoshiro256**
generator whose four 64-bit state words are filled by splitmix64 from a
single integer seed.  Both algorithms are pure integer arithmetic, so
streams are bit-identical across platforms and Python/NumPy versions,
which the reproducibility contract of the CLI relies on.

References: Blackman & Vigna, "Scrambled linear pseudorandom number
generators" (xoshiro256**); Steele, Lea & Flood (splitmix64).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; returns (new_state, output word)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256:
    """xoshiro256** seeded via splitmix64.

    `substream(name)` derives an independent child generator by hashing
    the parent seed together with a label, so one experiment seed can
    drive several named noise sources ("init", "sfm-noise", ...) without
    cross-talk.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        s = self.seed
        self._s = []
        for _ in range(4):
            s, word = splitmix64(s)
            self._s.append(word)

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # 53 high bits -> double in [0, 1)
        u = (self.next_u64() >> 11) * (1.0 / (1 << 53))
        return lo + (hi - lo) * u

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> list[float]:
        return [self.uniform(lo, hi) for _ in range(n)]

    def substream(self, name: str) -> "Xoshiro256":
        h = self.seed
        for byte in name.encode("utf-8"):
            h, word = splitmix64(h ^ byte)
            h ^= word
        return Xoshiro256(h)


def splitmix64_np(x):
    """Vectorized splitmix64 output word for uint64 arrays."""
    z = (np.asarray(x, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def hash_unit_np(seed: int, *coords):
    """Vectorized counter-based hash of integer coordinate arrays to
    doubles in [0, 1); bit-identical to itself everywhere."""
    h = np.zeros(np.broadcast(*coords).shape if coords else (), dtype=np.uint64)
    h = h + np.uint64(seed & _MASK64)
    for c in coords:
        h = splitmix64_np(h ^ np.asarray(c, dtype=np.uint64))
    h = splitmix64_np(h)
    return (h >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def normal_field_np(seed: int, shape, salt: int = 0):
    """Deterministic standard-normal array via Box-Muller over the
    counter-based hash stream."""
    idx = np.arange(int(np.prod(shape)), dtype=np.uint64)
    u1 = hash_unit_np(seed, idx, np.full_like(idx, 2 * salt))
    u2 = hash_unit_np(seed, idx, np.full_like(idx, 2 * salt + 1))
    u1 = np.maximum(u1, 1e-300)
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return z.reshape(shape)
