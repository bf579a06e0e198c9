"""The fail cache (paper §2.4): an SRAM-side map of known faults.

SAFER proposed — and Aegis-rw/-rw-p assume — a small, direct-mapped SRAM
cache holding the locations and stuck-at values of recently discovered
faults, consulted before each write so the controller can classify faults
as stuck-at-wrong/right without trial writes.

:class:`DirectMappedFailCache` models that structure faithfully enough for
the evaluation: fixed entry count, direct mapping by a hash of
(block, offset), conflict eviction, and hit/miss statistics.  An unbounded
variant (``capacity=None``) behaves like the paper's "sufficiently large
cache" while still exercising the record/lookup code paths.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import CacheMissError, ConfigurationError
from repro.pcm.cell import CellArray


@dataclass
class _Entry:
    block_key: int
    offset: int
    stuck_value: int


class SequentialBlockKeys:
    """Stable block keys for a deterministic fail cache.

    The cache's default key is ``id(cells)`` — fine for correctness, but
    memory addresses differ between processes, so direct-mapped conflict
    patterns (and therefore hit/eviction statistics) are not reproducible
    run to run.  This keyer assigns each distinct :class:`CellArray` a
    sequential integer in first-seen order instead; when blocks are probed
    in a deterministic order (as the service layer does), every statistic
    becomes a pure function of the workload and seed.
    """

    def __init__(self) -> None:
        self._keys: dict[int, int] = {}

    def __call__(self, cells: CellArray) -> int:
        return self._keys.setdefault(id(cells), len(self._keys))


class DirectMappedFailCache:
    """A direct-mapped fault cache usable as a
    :class:`~repro.schemes.base.FaultKnowledge` provider.

    Parameters
    ----------
    capacity:
        Number of entries; ``None`` for an unbounded (perfect) cache.
    strict:
        When ``True``, a lookup that misses any of the block's true faults
        raises :class:`~repro.errors.CacheMissError` instead of returning a
        partial view — for experiments that must *know* the cache-hit
        assumption held rather than silently degrade to retry behaviour.
    key_of:
        Maps a :class:`CellArray` to its cache key; defaults to ``id``.
        Pass a :class:`SequentialBlockKeys` instance when hit/eviction
        statistics must be reproducible across processes.
    """

    def __init__(
        self,
        capacity: int | None = 4096,
        *,
        strict: bool = False,
        key_of: Callable[[CellArray], int] | None = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ConfigurationError("fail cache capacity must be positive")
        self.capacity = capacity
        self.strict = strict
        self._key_of = key_of if key_of is not None else id
        self._entries: dict[int, _Entry] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _index(self, block_key: int, offset: int) -> int:
        key = hash((block_key, offset))
        if self.capacity is None:
            return key
        return key % self.capacity

    # -- FaultKnowledge interface -------------------------------------------

    def known_faults(self, cells: CellArray) -> dict[int, int]:
        """Every cached fault belonging to this block.

        Also tallies hit/miss statistics against the block's true faults so
        experiments can report cache effectiveness.
        """
        block_key = self._key_of(cells)
        known: dict[int, int] = {}
        missing: list[int] = []
        for offset in cells.fault_offsets:
            entry = self._entries.get(self._index(block_key, offset))
            if entry is not None and entry.block_key == block_key and entry.offset == offset:
                known[offset] = entry.stuck_value
                self.hits += 1
            else:
                self.misses += 1
                missing.append(offset)
        if self.strict and missing:
            raise CacheMissError(
                f"fail cache missing {len(missing)} fault(s) at offsets {missing}"
            )
        return known

    def record(self, cells: CellArray, offset: int, stuck_value: int) -> None:
        """Insert a fault discovered by a verification read."""
        self.record_many(cells, [offset], [int(stuck_value)])

    def record_many(self, cells: CellArray, offsets: list[int], values: list[int]) -> None:
        """:meth:`record` for several faults of one block, in order.

        Re-recording a fault whose entry is already resident changes
        nothing, so such offsets are skipped; the resulting entries and
        eviction count equal those of the per-offset loop.  An empty call
        does not touch the keyer, so block keys are handed out exactly as
        the per-offset loop would.
        """
        if not offsets:
            return
        block_key = self._key_of(cells)
        entries = self._entries
        for offset, value in zip(offsets, values):
            index = self._index(block_key, offset)
            existing = entries.get(index)
            if existing is not None:
                if existing.block_key == block_key and existing.offset == offset:
                    if existing.stuck_value == value:
                        continue
                else:
                    self.evictions += 1
            entries[index] = _Entry(block_key, offset, value)

    # -- statistics -----------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 1.0
