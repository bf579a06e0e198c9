"""Tests for the pairwise collision-slope ROM and the poisoned-slope
arithmetic built on it (Theorem 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collision import (
    MAX_SLOPE_BITS,
    NO_COLLISION,
    CollisionROM,
    collision_rom_for,
    first_free_slope,
    free_slopes,
)
from repro.core.geometry import rectangle_for
from repro.core.partition import partition_for
from repro.errors import ConfigurationError

#: every B the figures and ext-bsweep run, on 512-bit blocks
SWEEP_B = (23, 31, 61, 71, 113)


@pytest.fixture
def rom(paper_rect) -> CollisionROM:
    return collision_rom_for(paper_rect)


class TestTable:
    def test_matches_geometry(self, paper_rect, rom):
        for o1 in range(paper_rect.n_bits):
            for o2 in range(paper_rect.n_bits):
                if o1 == o2:
                    continue
                expected = paper_rect.collision_slope(o1, o2)
                actual = rom.slope_of(o1, o2)
                assert actual == (NO_COLLISION if expected is None else expected)

    @pytest.mark.parametrize("n_bits,b_size", [(512, b) for b in SWEEP_B] + [(64, 131)])
    def test_matches_geometry_sampled(self, n_bits, b_size):
        rect = rectangle_for(n_bits, b_size)
        rom = collision_rom_for(rect)
        stream = np.random.default_rng(b_size)
        for o1, o2 in stream.integers(0, n_bits, size=(400, 2)):
            if o1 != o2:
                expected = rect.collision_slope(int(o1), int(o2))
                assert rom.slope_of(int(o1), int(o2)) == (
                    NO_COLLISION if expected is None else expected
                )

    def test_symmetric(self, rom, paper_rect):
        n = paper_rect.n_bits
        for o1 in range(n):
            for o2 in range(o1 + 1, n):
                assert rom.slope_of(o1, o2) == rom.slope_of(o2, o1)

    def test_self_lookup_rejected(self, rom):
        with pytest.raises(ValueError):
            rom.slope_of(4, 4)

    def test_storage_bits(self):
        rom = collision_rom_for(rectangle_for(512, 61))
        assert rom.storage_bits == 512 * 512 * 6  # ceil(log2 61) = 6

    def test_cached(self, paper_rect):
        assert collision_rom_for(paper_rect) is collision_rom_for(paper_rect)


def split_mask(rom, wrong, right):
    """The single-row poisoned mask of a W/R fault split."""
    return rom.poisoned_mask(wrong + right, [True] * len(wrong) + [False] * len(right))[0]


def slopes_of(mask) -> set[int]:
    return set(int(s) for s in np.flatnonzero(mask))


def brute_force_mask(rect, offsets, wrong=None) -> np.ndarray:
    """The definition: slope k is poisoned when two counted faults share a
    group under it (every pair without a split, W x R pairs with one)."""
    partition = partition_for(rect)
    rows = 1 if wrong is None else len(wrong)
    mask = np.zeros((rows, rect.b_size), dtype=bool)
    for row in range(rows):
        for slope in range(rect.b_size):
            ids = partition.group_ids(slope)
            mask[row, slope] = any(
                ids[offsets[i]] == ids[offsets[j]]
                and (wrong is None or wrong[row][i] != wrong[row][j])
                for i in range(len(offsets))
                for j in range(i + 1, len(offsets))
            )
    return mask


class TestPoisonedSlopes:
    def test_empty_sides(self, rom):
        assert not split_mask(rom, [], [1, 2]).any()
        assert not split_mask(rom, [3], []).any()
        assert rom.poisoned_mask([]).shape == (1, 7)

    def test_cross_pairs_only(self, rom, paper_rect):
        # slopes poisoned by W={0}, R={1,2} are exactly the pair collisions
        expected = set()
        for r in (1, 2):
            slope = paper_rect.collision_slope(0, r)
            if slope is not None:
                expected.add(slope)
        assert slopes_of(split_mask(rom, [0], [1, 2])) == expected

    def test_all_pairs_superset(self, rom):
        offsets = [0, 1, 7, 12, 20]
        all_pairs = slopes_of(rom.poisoned_mask(offsets)[0])
        cross = slopes_of(split_mask(rom, offsets[:2], offsets[2:]))
        assert cross <= all_pairs

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_poisoned_definition(self, data):
        rect = rectangle_for(64, 11)
        rom = collision_rom_for(rect)
        wrong = data.draw(
            st.lists(st.integers(0, 63), min_size=1, max_size=4, unique=True)
        )
        right = data.draw(
            st.lists(
                st.integers(0, 63).filter(lambda o: o not in wrong),
                min_size=1,
                max_size=4,
                unique=True,
            )
        )
        poisoned = slopes_of(split_mask(rom, wrong, right))
        for slope in range(11):
            mixes = any(
                rect.group_of(w, slope) == rect.group_of(r, slope)
                for w in wrong
                for r in right
            )
            assert (slope in poisoned) == mixes

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SWEEP_B), st.data())
    def test_mask_matches_group_ids(self, b_size, data):
        """Batched masks equal the brute-force definition for every B the
        experiments use, with and without random W/R splits."""
        rect = rectangle_for(512, b_size)
        offsets = data.draw(
            st.lists(st.integers(0, 511), min_size=0, max_size=14, unique=True)
        )
        splits = data.draw(
            st.lists(
                st.lists(st.booleans(), min_size=len(offsets), max_size=len(offsets)),
                min_size=1,
                max_size=4,
            )
        )
        rom = collision_rom_for(rect)
        assert np.array_equal(rom.poisoned_mask(offsets), brute_force_mask(rect, offsets))
        assert np.array_equal(
            rom.poisoned_mask(offsets, np.array(splits, dtype=bool).reshape(len(splits), -1)),
            brute_force_mask(rect, offsets, splits),
        )


    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(SWEEP_B), st.data())
    def test_incremental_masks_or_to_the_full_mask(self, b_size, data):
        """ORing each arrival's ``since`` mask rebuilds the full mask, with
        or without a split; the incremental checker keeps its poisoned set
        this way."""
        rom = collision_rom_for(rectangle_for(512, b_size))
        offsets = data.draw(st.lists(st.integers(0, 511), max_size=20, unique=True))
        split = data.draw(st.lists(st.booleans(), min_size=len(offsets), max_size=len(offsets)))
        for wrong in (None, split):
            running = np.zeros(b_size, dtype=bool)
            for count in range(1, len(offsets) + 1):
                part = None if wrong is None else wrong[:count]
                running |= rom.poisoned_mask(offsets[:count], part, since=count - 1)[0]
                assert np.array_equal(running, rom.poisoned_mask(offsets[:count], part)[0])


class TestFindRwSlope:
    """The slope counter's walk to the first unpoisoned slope."""

    def test_prefers_start(self, rom):
        assert first_free_slope(split_mask(rom, [], []), start=4) == (4, 1)

    def test_skips_poisoned(self, rom, paper_rect):
        # W=0 and R=1 collide on exactly one slope; starting there must skip
        slope = paper_rect.collision_slope(0, 1)
        assert slope is not None
        found, trials = first_free_slope(split_mask(rom, [0], [1]), start=slope)
        assert found != slope and trials == 2
        assert paper_rect.group_of(0, found) != paper_rect.group_of(1, found)

    def test_exhaustion_returns_none(self):
        # 3x3 rectangle: W fills column 0, R fills column 1 — the four
        # cross pairs poison all three slopes
        rect = rectangle_for(9, 3)
        rom = collision_rom_for(rect)
        assert first_free_slope(split_mask(rom, [0, 3], [1, 4]), start=0) is None
        assert free_slopes(split_mask(rom, [0, 3], [1, 4])).size == 0

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=113), st.integers(0, 300))
    def test_first_free_matches_linear_walk(self, poisoned, start):
        mask = np.array(poisoned, dtype=bool)
        b_size = mask.size
        expected = None
        for trial in range(b_size):
            slope = (start + trial) % b_size
            if not mask[slope]:
                expected = (slope, trial + 1)
                break
        assert first_free_slope(mask, start) == expected
        walk = [(start + t) % b_size for t in range(b_size)]
        assert free_slopes(mask, start).tolist() == [s for s in walk if not mask[s]]


class TestSlopeBits:
    """The vector kernels' uint64 row bitset."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from((23, 31, 61)), st.data())
    def test_bits_match_mask(self, b_size, data):
        rect = rectangle_for(512, b_size)
        rom = collision_rom_for(rect)
        rows = data.draw(
            st.lists(
                st.lists(st.integers(0, 511), min_size=2, max_size=16, unique=True),
                min_size=1,
                max_size=5,
            )
        )
        count = min(len(row) for row in rows)
        offsets = np.array([row[:count] for row in rows], dtype=np.int64)
        bits = np.zeros(len(rows), dtype=np.uint64)
        for f in range(1, count):
            bits |= rom.slope_bits(offsets[:, f], offsets[:, :f])
        for row, word in zip(offsets, bits):
            mask = rom.poisoned_mask(row)[0]
            assert int(word) == sum(1 << int(s) for s in np.flatnonzero(mask))
            found = first_free_slope(mask)
            lowest = rom.lowest_free_slope(np.array([word]))[0]
            assert lowest == (0 if found is None else found[0])

    def test_dead_row_reports_slope_zero(self):
        rom = collision_rom_for(rectangle_for(512, 61))
        assert rom.lowest_free_slope(np.array([rom.all_slope_bits]))[0] == 0

    def test_limit(self):
        assert MAX_SLOPE_BITS == 63
        rom = collision_rom_for(rectangle_for(512, 71))
        with pytest.raises(ConfigurationError):
            rom.slope_bits(np.array([0]), np.array([[1]]))
