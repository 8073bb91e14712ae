"""Count-Min sketch (Cormode-Muthukrishnan): hashing-based counts.

``depth`` rows of ``width`` counters with pairwise-independent hashes;
an update increments one counter per row, a query takes the minimum.
Guarantees: no undercount, and overcount at most ``(e/width) * m`` with
probability ``1 - e^{-depth}`` per query.  Included as the classic
hashing baseline against which sampling-based summaries (and the paper's
SUBSAMPLE) are compared in E-STRM.
"""

from __future__ import annotations

import numpy as np

from ..db.generators import as_rng
from ..errors import StreamError
from .base import COUNT_BITS, StreamSummary

__all__ = ["CountMinSketch"]

_MERSENNE_PRIME = (1 << 61) - 1


class CountMinSketch(StreamSummary):
    """A ``depth x width`` Count-Min sketch.

    Parameters
    ----------
    universe:
        Item-id universe size.
    width:
        Counters per row; overcount <= ``e * m / width`` w.h.p.
    depth:
        Independent hash rows; failure probability ``e^{-depth}``.
    conservative:
        Use conservative updating (increment only the minimum counters),
        which never hurts accuracy.
    rng:
        Randomness for the hash coefficients.
    """

    def __init__(
        self,
        universe: int,
        width: int,
        depth: int,
        conservative: bool = False,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(universe)
        if width < 1 or depth < 1:
            raise StreamError(f"width and depth must be >= 1, got {width}, {depth}")
        self.width = width
        self.depth = depth
        self.conservative = conservative
        gen = as_rng(rng)
        self._a = gen.integers(1, _MERSENNE_PRIME, size=depth, dtype=np.int64)
        self._b = gen.integers(0, _MERSENNE_PRIME, size=depth, dtype=np.int64)
        self._table = np.zeros((depth, width), dtype=np.int64)

    def _hashes(self, item: int) -> np.ndarray:
        vals = (self._a * item + self._b) % _MERSENNE_PRIME
        return (vals % self.width).astype(np.intp)

    def _hashes_many(self, items: np.ndarray) -> np.ndarray:
        """Hash columns for a whole batch: ``(depth, len(items))`` at once.

        Same int64 arithmetic as :meth:`_hashes` (including wraparound), so
        batch and itemwise updates land on identical counters.  Computed
        in place in one ``(depth, n)`` buffer: multi-MB temporaries per
        batch would each be fresh pages to fault in.
        """
        vals = self._a[:, None] * items[None, :]
        vals += self._b[:, None]
        vals %= _MERSENNE_PRIME
        vals %= self.width
        return vals.astype(np.intp, copy=False)

    def _update(self, item: int) -> None:
        cols = self._hashes(item)
        rows = np.arange(self.depth)
        if self.conservative:
            current = self._table[rows, cols]
            floor = current.min() + 1
            self._table[rows, cols] = np.maximum(current, floor)
        else:
            self._table[rows, cols] += 1

    def _update_many(self, items: np.ndarray) -> None:
        """Bulk path: one vectorized hash evaluation for the whole batch.

        Plain updates are commutative counter additions, applied as one
        bincount per row.  Conservative updates are order-sensitive (each
        depends on the counters the previous one left), so they replay
        itemwise over the precomputed columns.
        """
        self.stream_length += int(items.size)
        cols = self._hashes_many(items)
        if self.conservative:
            rows = np.arange(self.depth)
            table = self._table
            for t in range(cols.shape[1]):
                current = table[rows, cols[:, t]]
                floor = current.min() + 1
                table[rows, cols[:, t]] = np.maximum(current, floor)
        else:
            for r in range(self.depth):
                self._table[r] += np.bincount(cols[r], minlength=self.width)

    def estimate_count(self, item: int) -> float:
        """Minimum counter across rows (never undercounts)."""
        cols = self._hashes(item)
        return float(self._table[np.arange(self.depth), cols].min())

    def expected_overcount(self) -> float:
        """The standard bound ``e * m / width``."""
        return float(np.e) * self.stream_length / self.width

    def size_in_bits(self) -> int:
        """``depth * width`` counters (hash coefficients charged too)."""
        return self.depth * self.width * COUNT_BITS + self.depth * 2 * 64
