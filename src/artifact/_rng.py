"""Deterministic random tapes.

A tape is a counter-based generator (splitmix64) keyed by (seed, stream), so
replays are reproducible and tapes on different streams never interact. A
protocol that wants randomness builds its node's tape as
``Tape(view.seed, view.node)``; the graph generators use a tape of their own.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class Tape:
    """Counter-based bit tape keyed by (seed, stream)."""

    __slots__ = ("_key", "_counter", "_buffer", "_avail")

    def __init__(self, seed: int, stream: int = 0):
        self._key = _splitmix64((seed & _MASK) ^ _splitmix64(stream & _MASK))
        self._counter = 0
        self._buffer = 0
        self._avail = 0

    def _refill(self) -> None:
        self._buffer = _splitmix64(self._key ^ self._counter)
        self._counter += 1
        self._avail = 64

    def bit(self) -> int:
        if not self._avail:
            self._refill()
        b = self._buffer & 1
        self._buffer >>= 1
        self._avail -= 1
        return b

    def bits(self, k: int) -> str:
        return "".join("01"[self.bit()] for _ in range(k))

    def randrange(self, m: int) -> int:
        """Uniform integer in [0, m) by rejection sampling."""
        if m <= 0:
            raise ValueError("randrange needs m >= 1")
        nbits = (m - 1).bit_length()
        while True:
            v = int(self.bits(nbits), 2) if nbits else 0
            if v < m:
                return v
