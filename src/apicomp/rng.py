"""Deterministic 64-bit pseudo-random stream (splitmix64).

Pinned to a published algorithm instead of the stdlib generator so that
synthetic corpora reproduce bit-for-bit on any platform or runtime, given
the same 64-bit seed.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream: state advances by the golden-gamma constant and
    the output is a mixed copy of the state."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform int in [0, n); modulo reduction (bias is negligible for
        any n this package draws)."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        return self.next_u64() % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform int in [lo, hi], both ends inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.below(hi - lo + 1)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
