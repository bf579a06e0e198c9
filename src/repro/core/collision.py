"""The pairwise collision-slope ROM (paper §2.4).

Theorem 2 implies any two block bits share a group under *at most one*
slope.  Aegis-rw exploits this with an ``n x n`` ROM holding that unique
slope for every bit pair: given the stuck-at-wrong and stuck-at-right fault
sets of a block, reading the ROM for every (W, R) cross pair yields the set
of *poisoned* slopes; any slope outside that set is a collision-free
configuration, found without trial writes.

:class:`CollisionROM` is the vectorised software model of that ROM.  Entries
for same-column pairs (which never collide) hold :data:`NO_COLLISION`.

This module is the one implementation of the poisoned-slope arithmetic,
shared by checkers, kernels and controllers: the ``(rows, B)``
:meth:`~CollisionROM.poisoned_mask` (all pairs, or W x R pairs per W/R
split), the slope counter's walk :func:`first_free_slope`, and the vector
kernels' ``uint64`` row bitset (:meth:`~CollisionROM.slope_bits`, at most
:data:`MAX_SLOPE_BITS` slopes).
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

import numpy as np

from repro.core.geometry import Rectangle
from repro.errors import ConfigurationError
from repro.util.primes import mod_inverse

#: sentinel for pairs that never share a group (same-column pairs)
NO_COLLISION = -1

#: the vector kernels keep each row's poisoned slopes in one uint64 word
MAX_SLOPE_BITS = 63


class CollisionROM:
    """``n x n`` table of the unique colliding slope of every bit pair."""

    def __init__(self, rect: Rectangle) -> None:
        self.rect = rect
        n, a_size, b_size = rect.n_bits, rect.a_size, rect.b_size
        # the colliding slope depends only on the pair's coordinate
        # differences (da, db): db / da modulo the prime B, none for da = 0
        slope_of = np.full((b_size, b_size), NO_COLLISION, dtype=np.int16)
        for da in range(1, b_size):
            slope_of[da] = np.arange(b_size) * mod_inverse(da, b_size) % b_size
        # n x n lookups through the narrowest signed type that holds the
        # coordinate differences and B keep the build's temporaries small
        offsets = np.arange(n, dtype=np.min_scalar_type(-max(n, b_size)))
        a = offsets % a_size
        b = offsets // a_size
        da = (a[:, None] - a[None, :]) % b_size
        self._table = slope_of[da, (b[:, None] - b[None, :]) % b_size]
        # shared chip-wide via collision_rom_for: sealed read-only
        self._table.flags.writeable = False

    @property
    def storage_bits(self) -> int:
        """ROM size in bits: ``n * n * ceil(log2 B)`` (paper §2.4).

        This is chip-shared hardware, not per-block overhead, which is why
        it never appears in Table 1.
        """
        return self.rect.n_bits**2 * max(1, (self.rect.b_size - 1).bit_length())

    def slope_of(self, offset1: int, offset2: int) -> int:
        """Colliding slope of a pair, or :data:`NO_COLLISION`."""
        if offset1 == offset2:
            raise ValueError("a bit does not collide with itself")
        return int(self._table[offset1, offset2])

    def poisoned_mask(
        self, offsets: Iterable[int], wrong: np.ndarray | None = None, *, since: int = 0
    ) -> np.ndarray:
        """``(rows, B)`` mask of the slopes poisoned among ``offsets``.

        A slope is poisoned when some counted fault pair shares a group
        under it; by Theorem 2 each pair poisons at most one slope.  With
        no ``wrong`` split every pair counts (plain Aegis) and there is one
        row.  ``wrong`` is a ``(rows, f)`` boolean W/R split per row (one
        row per sampled data pattern); only W x R cross pairs count
        (Aegis-rw).  ``since`` counts only pairs involving a fault at index
        ``since`` or later, so an incremental caller ORs in only what its
        newest faults add.
        """
        offs = np.fromiter(offsets, dtype=np.int64)
        first, second = _pair_indices(offs.size, since)
        slopes = self._table[offs[first], offs[second]]
        b_size = self.rect.b_size
        # pairs that never collide (NO_COLLISION = -1) land in a spare last
        # column, sliced off on return
        if wrong is None:
            mask = np.zeros((1, b_size + 1), dtype=bool)
            mask[0, slopes] = True
        else:
            split = np.atleast_2d(np.asarray(wrong, dtype=bool))
            rows, pairs = np.nonzero(split[:, first] != split[:, second])
            mask = np.zeros((split.shape[0], b_size + 1), dtype=bool)
            mask[rows, slopes[pairs]] = True
        return mask[:, :b_size]

    @property
    def all_slope_bits(self) -> np.uint64:
        """The bitset with every slope poisoned (a dead block)."""
        return np.uint64((1 << self.rect.b_size) - 1)

    def slope_bits(self, new: np.ndarray, prior: np.ndarray) -> np.ndarray:
        """Per-row uint64 bitset of the slopes row ``r``'s ``new[r]`` fault
        poisons against its ``prior[r, :]`` faults (B <= 63 only)."""
        if self.rect.b_size > MAX_SLOPE_BITS:
            raise ConfigurationError(
                f"B = {self.rect.b_size} exceeds the {MAX_SLOPE_BITS}-slope "
                "uint64 bitset of the vector kernels"
            )
        slopes = self._table[new[:, None], prior]
        valid = slopes != NO_COLLISION
        shifts = np.where(valid, slopes, 0).astype(np.uint64)
        bits = np.where(valid, np.uint64(1) << shifts, np.uint64(0))
        return np.bitwise_or.reduce(bits, axis=1)

    def lowest_free_slope(self, bits: np.ndarray) -> np.ndarray:
        """Each row's lowest unpoisoned slope from its uint64 bitset (0 for
        rows with every slope poisoned)."""
        free = ~bits & self.all_slope_bits
        lowest = free & (np.uint64(0) - free)  # the lowest set bit alone
        slope = np.bitwise_count(lowest - np.uint64(1)).astype(np.int64)
        return np.where(free > 0, slope, 0)


@lru_cache(maxsize=None)
def _pair_indices(count: int, since: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of every unordered pair among ``count`` faults that
    involves a fault at index ``since`` or later."""
    first, second = np.triu_indices(count, k=1)
    first, second = first[second >= since], second[second >= since]
    first.flags.writeable = False
    second.flags.writeable = False
    return first, second


def free_slopes(poisoned: np.ndarray, start: int = 0) -> np.ndarray:
    """Unpoisoned slopes of a ``(B,)`` mask in the slope counter's walk
    order: ``start``, ``start + 1``, ... wrapping modulo ``B``."""
    free = np.flatnonzero(~poisoned)
    return np.roll(free, -int(np.searchsorted(free, start % poisoned.size)))


def first_free_slope(poisoned: np.ndarray, start: int = 0) -> tuple[int, int] | None:
    """First unpoisoned slope at or after ``start`` (wrapping), as
    ``(slope, trials)`` where ``trials`` counts the configurations the
    slope counter examines (1 when ``start`` is free); ``None`` when every
    slope is poisoned."""
    b_size = poisoned.size
    start %= b_size
    for low, high in ((start, b_size), (0, start)):
        if high > low:
            slope = low + int(poisoned[low:high].argmin())
            if not poisoned[slope]:
                return slope, (slope - start) % b_size + 1
    return None


@lru_cache(maxsize=None)
def collision_rom_for(rect: Rectangle) -> CollisionROM:
    """Shared, cached collision ROM for a rectangle."""
    return CollisionROM(rect)
