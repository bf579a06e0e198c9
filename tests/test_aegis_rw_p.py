"""Tests for the pointer-based Aegis-rw-p controller."""

import numpy as np
import pytest

from repro.core.aegis_rw import rw_poisoned_mask
from repro.core.aegis_rw_p import AegisRwPScheme, fit_pointer_budget
from repro.core.collision import collision_rom_for
from repro.core.formations import formation
from repro.core.partition import partition_for
from repro.errors import ConfigurationError, UncorrectableError
from repro.pcm.cell import CellArray
from repro.schemes.base import roundtrip
from tests.conftest import budget_walk, random_data


def make_scheme(n_bits=512, a=9, b=61, pointers=9, faults=()):
    cells = CellArray(n_bits)
    for offset, stuck in faults:
        cells.inject_fault(offset, stuck_value=stuck)
    return AegisRwPScheme(cells, formation(a, b, n_bits), pointers), cells


class TestBasics:
    def test_identity_and_cost(self):
        scheme, _ = make_scheme()
        assert scheme.name == "Aegis-rw-p 9x61 p=9"
        # 6-bit slope counter + 9 x 6-bit pointers + 2 flags
        assert scheme.overhead_bits == 62
        # aegis_rw_hard_ftc(61) = 15, pointer bound 2p+1 = 19
        assert scheme.hard_ftc == 15

    def test_pointer_budget_validated(self):
        with pytest.raises(ConfigurationError):
            make_scheme(pointers=0)

    def test_faultless_roundtrip(self, rng):
        scheme, _ = make_scheme()
        for _ in range(5):
            assert roundtrip(scheme, random_data(rng, 512))


class TestWMode:
    def test_w_groups_within_budget(self):
        # three W faults for all-zero data -> W mode, <= 3 pointers
        scheme, _ = make_scheme(pointers=3, faults=[(0, 1), (100, 1), (400, 1)])
        data = np.zeros(512, dtype=np.uint8)
        scheme.write(data)
        assert np.array_equal(scheme.read(), data)
        assert not scheme.block_inverted
        assert 1 <= len(scheme.pointed_groups) <= 3

    def test_no_wrong_faults_no_pointers(self):
        scheme, _ = make_scheme(pointers=2, faults=[(50, 0), (60, 0)])
        data = np.zeros(512, dtype=np.uint8)  # both faults stuck right
        scheme.write(data)
        assert np.array_equal(scheme.read(), data)
        assert scheme.pointed_groups == []
        assert not scheme.block_inverted


class TestRMode:
    def test_pigeonhole_flips_to_r_mode(self):
        # many W faults, one R fault: pointing at the single R group is
        # cheaper than pointing at all the W groups
        w_faults = [(a * i, 1) for a, i in [(9, r) for r in range(8)]]  # column 0
        faults = w_faults + [(5, 0)]  # one R fault for all-zero data
        scheme, _ = make_scheme(pointers=2, faults=faults)
        data = np.zeros(512, dtype=np.uint8)
        scheme.write(data)
        assert np.array_equal(scheme.read(), data)
        assert scheme.block_inverted  # R mode engaged
        assert len(scheme.pointed_groups) <= 2

    def test_r_mode_readback_with_healthy_bits(self, rng):
        # R-mode inverts most of the block; healthy cells must still decode
        faults = [(9 * i, 1) for i in range(8)] + [(5, 0)]
        scheme, _ = make_scheme(pointers=2, faults=faults)
        payload = np.zeros(512, dtype=np.uint8)
        scheme.write(payload)
        stored = scheme.cells.read()
        # most stored bits should be inverted (block_inverted mode)
        assert stored.sum() > 256
        assert np.array_equal(scheme.read(), payload)


class TestFailure:
    def test_budget_exhaustion(self, rng):
        # pointers=1 and two W faults forced into different groups on
        # every slope (same column never collides) with an R fault blocking
        # the R-mode escape on... simpler: many scattered W faults and many
        # scattered R faults exceed one pointer both ways
        rng_local = np.random.default_rng(5)
        offsets = rng_local.choice(512, size=24, replace=False)
        faults = [(int(o), 1 if i < 12 else 0) for i, o in enumerate(offsets)]
        scheme, _ = make_scheme(pointers=1, faults=faults)
        with pytest.raises(UncorrectableError):
            scheme.write(np.zeros(512, dtype=np.uint8))
        assert scheme.retired

    def test_sequences_within_hard_ftc(self, rng):
        # any fault pattern within hard FTC must survive arbitrary data
        scheme, cells = make_scheme(pointers=5, a=17, b=31)
        hard = scheme.hard_ftc
        offsets = rng.choice(512, size=hard, replace=False)
        for offset in offsets:
            cells.inject_fault(int(offset), stuck_value=int(rng.integers(0, 2)))
            payload = random_data(rng, 512)
            scheme.write(payload)
            assert np.array_equal(scheme.read(), payload)


class TestPointerBudgetSearch:
    @pytest.mark.parametrize("a,b,pointers", [(23, 23, 2), (17, 31, 5), (9, 61, 9), (8, 71, 4)])
    def test_matches_slope_by_slope_walk(self, a, b, pointers):
        form = formation(a, b, 512)
        partition = partition_for(form.rect)
        rom = collision_rom_for(form.rect)
        stream = np.random.default_rng(b * 100 + pointers)
        outcomes = set()
        for _ in range(40):
            count = int(stream.integers(1, 30))
            offsets = [int(o) for o in stream.choice(512, size=count, replace=False)]
            is_wrong = stream.integers(0, 2, len(offsets)).astype(bool)
            wrong = [o for o, w in zip(offsets, is_wrong) if w]
            right = [o for o, w in zip(offsets, is_wrong) if not w]
            start = int(stream.integers(0, b))
            found = fit_pointer_budget(
                partition, rw_poisoned_mask(rom, wrong, right), wrong, right, pointers, start
            )
            assert found == budget_walk(form.rect, wrong, right, pointers, start)
            outcomes.add(None if found is None else found[2])
        assert outcomes == {None, False, True}  # both modes and failure seen
