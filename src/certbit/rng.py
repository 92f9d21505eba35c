"""Explicit, seedable, splittable randomness.

Every probabilistic operation in the package takes a :class:`RandomStream`
argument; there is no hidden global randomness.  Streams are backed by the
counter-based Philox generator, and ``split`` derives statistically
independent child streams deterministically, so parallel batches and
re-runs with the same seed reproduce bit-identical results.  A fair bit is
a uniform below 1/2.  A ``random``, ``bits`` or ``integers(0, 2)`` array
drawn in consecutive row blocks gives the one draw's values and leaves the
stream where that draw would.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RandomStream"]


class RandomStream:
    """Counter-based random stream with deterministic splitting."""

    def __init__(self, seed: int | None = None, *, _sequence: np.random.SeedSequence | None = None):
        if _sequence is None:
            if seed is None:
                raise ValueError("RandomStream requires an explicit seed")
            _sequence = np.random.SeedSequence(int(seed))
        self._sequence = _sequence
        self._generator = np.random.Generator(np.random.Philox(_sequence))

    def split(self, n: int) -> list["RandomStream"]:
        """Derive ``n`` independent child streams (deterministic)."""
        if n < 1:
            raise ValueError("split needs n >= 1")
        return [RandomStream(_sequence=child) for child in self._sequence.spawn(n)]

    # Thin pass-throughs to the underlying generator.  Only the sampling
    # primitives the package actually uses are exposed.

    def random(self, size=None):
        return self._generator.random(size)

    def integers(self, low, high=None, size=None):
        return self._generator.integers(low, high, size=size)

    def bit(self) -> int:
        return int(self._generator.random() < 0.5)

    def bits(self, size) -> np.ndarray:
        """Fair int64 bits of shape ``size`` from one ``random(size)``: the values of as many ``bit()`` calls."""
        return (self._generator.random(size) < 0.5).astype(np.int64)

    def permutation(self, n: int, rows: int | None = None) -> np.ndarray:
        """A permutation of ``range(n)``; with ``rows``, a ``(rows, n)`` array of the ones ``rows`` calls would give."""
        if rows is None:
            return self._generator.permutation(n)
        if rows == 1:  # the same numbers, without the set-up cost of ``permuted``
            return self._generator.permutation(n)[None]
        return self._generator.permuted(np.broadcast_to(np.arange(n), (rows, n)), axis=1)

    def choice(self, seq, size=None, replace=True):
        return self._generator.choice(seq, size=size, replace=replace)

    def multinomial(self, n: int, pvals) -> np.ndarray:
        return self._generator.multinomial(n, pvals)
