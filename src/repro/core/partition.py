"""Vectorised Aegis partition engine.

:class:`AegisPartition` wraps a :class:`~repro.core.geometry.Rectangle` with
precomputed numpy lookup tables so the hot operations of the recovery
controllers and Monte Carlo simulators are O(1) array lookups:

* ``group_ids(slope)`` — group ID of every block bit under a slope (one row
  of the ``B x n`` :attr:`~AegisPartition.group_table`, the software twin
  of the paper's Figure 3 ROM);
* ``members_mask(slope, groups)`` — 0/1 mask of the bits belonging to a set
  of groups (the Figure 4 inversion-mask ROM);
* ``find_separating_slope`` — the re-partition walk of §2.2: starting from
  the current slope-counter value, advance until a configuration is found
  in which all given fault offsets occupy distinct groups (the walk over
  the all-pairs poisoned mask of :mod:`repro.core.collision`);
* ``group_counts`` — how many distinct groups a fault set hits under each
  of several slopes (the Aegis-rw-p pointer budget).
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

import numpy as np

from repro.core.collision import collision_rom_for, first_free_slope
from repro.core.geometry import Rectangle


class AegisPartition:
    """Precomputed partition tables for one rectangle."""

    def __init__(self, rect: Rectangle) -> None:
        self.rect = rect
        offsets = np.arange(rect.n_bits, dtype=np.int64)
        a = offsets % rect.a_size
        b = offsets // rect.a_size
        slopes = np.arange(rect.b_size, dtype=np.int64)[:, None]
        # _table[k, x] = group of bit x under slope k; instances are shared
        # chip-wide via partition_for, so the table is sealed read-only
        self._table = ((b[None, :] - a[None, :] * slopes) % rect.b_size).astype(np.int16)
        self._table.flags.writeable = False
        self._members: dict[tuple[int, int], np.ndarray] = {}

    @property
    def group_table(self) -> np.ndarray:
        """The read-only ``(B, n)`` table: ``group_table[k, x]`` is the
        group of bit ``x`` under slope ``k`` — the whole Figure 3 ROM, for
        callers that gather group ids for many slopes or rows at once."""
        return self._table

    @property
    def n_bits(self) -> int:
        return self.rect.n_bits

    @property
    def slope_count(self) -> int:
        return self.rect.slope_count

    @property
    def group_count(self) -> int:
        return self.rect.group_count

    def group_ids(self, slope: int) -> np.ndarray:
        """Group ID of every bit under ``slope`` (read-only view)."""
        return self._table[slope]

    def members_array(self, group: int, slope: int) -> np.ndarray:
        """Bit offsets of ``group`` under ``slope`` as a shared read-only
        ``int64`` array (ascending) — the memoised counterpart of
        :meth:`Rectangle.group_members`, built once per (slope, group) and
        reused by every checker sharing this partition instance."""
        key = (slope, group)
        members = self._members.get(key)
        if members is None:
            members = np.flatnonzero(self._table[slope] == group).astype(np.int64)
            members.flags.writeable = False
            self._members[key] = members
        return members

    def group_of(self, offset: int, slope: int) -> int:
        """Group ID of one bit under ``slope``."""
        return int(self._table[slope, offset])

    def members_mask(self, slope: int, groups: Iterable[int] | np.ndarray) -> np.ndarray:
        """0/1 ``uint8`` mask selecting the bits of the given groups."""
        selected = np.zeros(self.rect.b_size, dtype=bool)
        selected[np.asarray(list(groups) if not isinstance(groups, np.ndarray) else groups, dtype=np.int64)] = True
        return selected[self._table[slope]].astype(np.uint8)

    def separates(self, slope: int, offsets: Iterable[int]) -> bool:
        """True when all ``offsets`` fall into distinct groups under ``slope``."""
        ids = self._table[slope, np.fromiter(offsets, dtype=np.int64)]
        return len(np.unique(ids)) == ids.size

    def find_separating_slope(
        self, offsets: Iterable[int], start: int = 0
    ) -> tuple[int, int] | None:
        """Walk slopes from ``start`` (wrapping) until one separates all
        ``offsets`` into distinct groups.

        Returns ``(slope, trials)`` where ``trials`` counts the
        configurations examined (1 when the current one already works), or
        ``None`` when no configuration separates the faults — the block is
        unrecoverable for plain Aegis.
        """
        poisoned = collision_rom_for(self.rect).poisoned_mask(offsets)[0]
        return first_free_slope(poisoned, start)

    def groups_hit(self, slope: int, offsets: Iterable[int]) -> list[int]:
        """Sorted distinct group IDs containing any of ``offsets``."""
        offs = np.fromiter(offsets, dtype=np.int64)
        if offs.size == 0:
            return []
        return [int(g) for g in np.unique(self._table[slope, offs])]

    def group_counts(self, slopes: np.ndarray, offsets: Iterable[int]) -> np.ndarray:
        """Number of distinct groups ``offsets`` hit under each of ``slopes``."""
        offs = np.fromiter(offsets, dtype=np.int64)
        if offs.size == 0:
            return np.zeros(len(slopes), dtype=np.int64)
        ids = np.sort(self._table[np.ix_(slopes, offs)], axis=1)
        return 1 + np.count_nonzero(ids[:, 1:] != ids[:, :-1], axis=1)


@lru_cache(maxsize=None)
def partition_for(rect: Rectangle) -> AegisPartition:
    """Shared, cached partition tables for a rectangle (tables are immutable)."""
    return AegisPartition(rect)
