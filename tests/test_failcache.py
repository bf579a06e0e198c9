"""Tests for the direct-mapped fail cache."""

import pytest

from repro.errors import ConfigurationError
from repro.pcm.cell import CellArray
from repro.pcm.failcache import DirectMappedFailCache, SequentialBlockKeys


class TestFailCache:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            DirectMappedFailCache(capacity=0)

    def test_records_and_recalls(self):
        cache = DirectMappedFailCache(capacity=None)
        cells = CellArray(64)
        cells.inject_fault(3, stuck_value=1)
        assert cache.known_faults(cells) == {}  # cold
        cache.record(cells, 3, 1)
        assert cache.known_faults(cells) == {3: 1}

    def test_miss_statistics(self):
        cache = DirectMappedFailCache(capacity=None)
        cells = CellArray(64)
        cells.inject_fault(3, stuck_value=1)
        cells.inject_fault(9, stuck_value=0)
        cache.record(cells, 3, 1)
        known = cache.known_faults(cells)
        assert known == {3: 1}
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_blocks_are_isolated(self):
        cache = DirectMappedFailCache(capacity=None)
        cells_a = CellArray(64)
        cells_b = CellArray(64)
        cells_a.inject_fault(3, stuck_value=1)
        cells_b.inject_fault(3, stuck_value=0)
        cache.record(cells_a, 3, 1)
        assert cache.known_faults(cells_b) == {}

    def test_conflict_eviction(self):
        cache = DirectMappedFailCache(capacity=1)
        cells = CellArray(64)
        cells.inject_fault(3, stuck_value=1)
        cells.inject_fault(9, stuck_value=0)
        cache.record(cells, 3, 1)
        cache.record(cells, 9, 0)  # single set: must evict
        assert cache.evictions == 1
        assert cache.occupancy == 1
        # only one of the two faults is now known
        assert len(cache.known_faults(cells)) == 1

    def test_strict_mode_raises_on_miss(self):
        from repro.errors import CacheMissError

        cache = DirectMappedFailCache(capacity=None, strict=True)
        cells = CellArray(64)
        cells.inject_fault(3, stuck_value=1)
        with pytest.raises(CacheMissError):
            cache.known_faults(cells)
        cache.record(cells, 3, 1)
        assert cache.known_faults(cells) == {3: 1}

    def test_update_in_place_is_not_eviction(self):
        cache = DirectMappedFailCache(capacity=1)
        cells = CellArray(64)
        cells.inject_fault(3, stuck_value=1)
        cache.record(cells, 3, 1)
        cache.record(cells, 3, 1)
        assert cache.evictions == 0

    def test_record_many_matches_the_per_offset_loop(self):
        def fill(batched):
            cache = DirectMappedFailCache(capacity=7, key_of=SequentialBlockKeys())
            blocks = [CellArray(64) for _ in range(3)]
            for index, cells in enumerate(blocks):
                offsets = [] if index == 0 else [3 * index, 5 * index, 40 + index]
                values = [offset % 2 for offset in offsets]
                for _ in range(2):  # the second round re-records resident faults
                    if batched:
                        cache.record_many(cells, offsets, values)
                    else:
                        for offset, value in zip(offsets, values):
                            cache.record(cells, offset, value)
            # an empty batch hands out no block key, so the keys that
            # decide direct-mapped conflicts stay those of the loop
            probe = CellArray(64)
            probe.inject_fault(1, stuck_value=0)
            cache.record(probe, 1, 0)
            return cache._entries, cache.evictions, cache._key_of(probe)

        assert fill(batched=True) == fill(batched=False)
