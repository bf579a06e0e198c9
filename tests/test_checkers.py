"""Cross-validation of the fast Monte Carlo checkers against the
bit-accurate controllers.

The whole evaluation rests on the checkers answering the same question the
controllers answer ("can this block still store arbitrary data?"), so for
each scheme family we drive the same fault arrival sequence into both and
compare verdicts:

* **static** checkers (Aegis, SAFER, ECP) must agree with the controller's
  worst case exactly: when the checker says dead, some data pattern must
  fail the controller, and when it says alive, every pattern must succeed
  (verified by sampling patterns and, where feasible, constructing the
  adversarial pattern).
* **sampled** checkers (Aegis-rw, RDIS, SAFER-cache) share the controller's
  data-dependence; we verify agreement pattern-by-pattern on the *same*
  fault sets.
"""

import numpy as np
import pytest

from repro.core.aegis import AegisScheme
from repro.core.aegis_rw import AegisRwScheme, rw_poisoned_mask
from repro.core.collision import collision_rom_for, first_free_slope
from repro.core.formations import formation
from repro.core.geometry import rectangle_for
from repro.errors import UncorrectableError
from repro.pcm.cell import CellArray
from repro.schemes.rdis import rdis_mask
from repro.schemes.safer import SaferScheme
from repro.sim.checkers import (
    AegisChecker,
    AegisDynamicChecker,
    AegisRwChecker,
    AegisRwPChecker,
    EcpChecker,
    HammingChecker,
    NoProtectionChecker,
    SaferCacheChecker,
    SaferChecker,
    SaferIncrementalChecker,
    _any_rdis_failure,
)
from tests.conftest import budget_walk, random_data


def feed_faults(checker, faults):
    """Feed (offset, stuck) pairs; return the index of death or None."""
    for i, (offset, stuck) in enumerate(faults):
        if not checker.add_fault(offset, stuck):
            return i
    return None


class TestAegisChecker:
    def test_alive_means_separable(self, rng):
        rect = rectangle_for(512, 31)
        for _ in range(20):
            checker = AegisChecker(rect)
            offsets = [int(o) for o in rng.choice(512, size=20, replace=False)]
            for offset in offsets:
                alive = checker.add_fault(offset, 0)
                separable = any(
                    len(
                        {rect.group_of(o, k) for o in checker.fault_offsets}
                    ) == len(checker.fault_offsets)
                    for k in range(rect.b_size)
                )
                assert alive == separable
                if not alive:
                    break

    def test_agrees_with_controller_worst_case(self, rng):
        """When the static checker declares death, the all-wrong data
        pattern must fail the real controller."""
        form = formation(23, 23, 512)
        for trial in range(10):
            stream = np.random.default_rng(trial)
            checker = AegisChecker(form.rect)
            cells = CellArray(512)
            stuck_values = {}
            death = None
            for offset in stream.permutation(512):
                offset = int(offset)
                stuck = int(stream.integers(0, 2))
                stuck_values[offset] = stuck
                cells.inject_fault(offset, stuck_value=stuck)
                if not checker.add_fault(offset, stuck):
                    death = offset
                    break
            assert death is not None
            controller = AegisScheme(cells, form)
            # adversarial data: every fault stuck at the wrong value
            data = np.zeros(512, dtype=np.uint8)
            for offset, stuck in stuck_values.items():
                data[offset] = 1 - stuck
            with pytest.raises(UncorrectableError):
                controller.write(data)

    def test_alive_controller_succeeds(self, rng):
        """While the checker says alive, the controller services any data."""
        form = formation(9, 61, 512)
        checker = AegisChecker(form.rect)
        cells = CellArray(512)
        scheme = AegisScheme(cells, form)
        for offset in rng.choice(512, size=14, replace=False):
            offset = int(offset)
            stuck = int(rng.integers(0, 2))
            cells.inject_fault(offset, stuck_value=stuck)
            if not checker.add_fault(offset, stuck):
                break
            for _ in range(3):
                payload = random_data(rng, 512)
                scheme.write(payload)
                assert np.array_equal(scheme.read(), payload)

    def test_group_members_under_current_slope(self, rng):
        rect = rectangle_for(512, 61)
        checker = AegisChecker(rect)
        checker.add_fault(100, 0)
        checker.add_fault(101, 0)  # same row: poisons slope 0
        members = checker.group_members(100)
        found = first_free_slope(checker.poisoned)
        assert found == (1, 2)
        slope, _ = found
        group = rect.group_of(100, slope)
        assert set(int(m) for m in members) == set(rect.group_members(group, slope))


class TestSaferCheckers:
    def test_exhaustive_checker_matches_controller(self):
        """The exhaustive checker dies exactly when no vector separates."""
        for trial in range(10):
            stream = np.random.default_rng(100 + trial)
            checker = SaferChecker(512, 32)
            cells = CellArray(512)
            controller = SaferScheme(cells, 32, policy="exhaustive")
            stuck_values = {}
            for offset in stream.permutation(512):
                offset = int(offset)
                stuck = int(stream.integers(0, 2))
                stuck_values[offset] = stuck
                cells.inject_fault(offset, stuck_value=stuck)
                alive = checker.add_fault(offset, stuck)
                if not alive:
                    # adversarial data: every fault mismatches on the first
                    # verification read, given the controller's current
                    # inversion state
                    mask = controller._inversion_mask()
                    data = np.zeros(512, dtype=np.uint8)
                    for o, s in stuck_values.items():
                        data[o] = (1 - s) ^ int(mask[o])
                    with pytest.raises(UncorrectableError):
                        controller.write(data)
                    break
                payload = stream.integers(0, 2, 512, dtype=np.uint8)
                controller.write(payload)
                assert np.array_equal(controller.read(), payload)

    def test_incremental_never_outlives_exhaustive(self):
        for trial in range(10):
            stream = np.random.default_rng(200 + trial)
            faults = [
                (int(o), int(stream.integers(0, 2)))
                for o in stream.permutation(512)[:40]
            ]
            d_inc = feed_faults(SaferIncrementalChecker(512, 32), faults)
            d_exh = feed_faults(SaferChecker(512, 32), faults)
            assert d_exh is None or d_inc is not None
            if d_inc is not None and d_exh is not None:
                assert d_inc <= d_exh

    def test_incremental_checker_conservative_vs_controller(self):
        """The static incremental checker treats any same-group fault pair
        as a collision; the live controller can do better when both faults
        happen to be the same type for the written data (inverting the
        group fixes both).  So the checker must never declare death *after*
        the controller dies on the same fault order."""
        for trial in range(5):
            stream = np.random.default_rng(300 + trial)
            faults = [
                (int(o), 1) for o in stream.permutation(512)[:30]
            ]  # all stuck at 1
            checker = SaferIncrementalChecker(512, 32)
            checker_death = feed_faults(checker, faults)
            cells = CellArray(512)
            controller = SaferScheme(cells, 32, policy="incremental")
            controller_death = None
            zeros = np.zeros(512, dtype=np.uint8)  # every fault is W
            for i, (offset, stuck) in enumerate(faults):
                cells.inject_fault(offset, stuck_value=stuck)
                try:
                    controller.write(zeros)
                except UncorrectableError:
                    controller_death = i
                    break
            assert checker_death is not None
            assert controller_death is None or controller_death >= checker_death


class TestSampledCheckers:
    def test_aegis_rw_checker_agrees_with_rom_condition(self, rng):
        """Replaying the checker's own pattern draws, it dies exactly when
        some drawn pattern leaves no slope free of W/R mixing."""
        rect = rectangle_for(512, 23)
        seed = int(rng.integers(2**31))
        checker = AegisRwChecker(rect, np.random.default_rng(seed), samples=4)
        replay = np.random.default_rng(seed)
        offsets = np.array([int(o) for o in rng.choice(512, size=60, replace=False)])
        for f in range(1, offsets.size + 1):
            alive = checker.add_fault(int(offsets[f - 1]), 0)
            if (f // 2) * ((f + 1) // 2) < rect.b_size:
                assert alive  # too few cross pairs to poison every slope
                continue
            patterns = replay.integers(0, 2, size=(4, f), dtype=np.uint8).astype(bool)
            expected = all(
                any(
                    not set(rect.group_of(int(w), k) for w in offsets[:f][p])
                    & set(rect.group_of(int(r), k) for r in offsets[:f][~p])
                    for k in range(rect.b_size)
                )
                for p in patterns
            )
            assert alive == expected
            if not alive:
                break
        assert not checker.alive

    @pytest.mark.parametrize("b_size,pointers", [(23, 2), (61, 6)])
    def test_aegis_rw_p_checker_agrees_with_budget_walk(self, rng, b_size, pointers):
        """Replaying the checker's own pattern draws, it dies exactly when
        some drawn pattern fails the slope-by-slope pointer-budget walk."""
        rect = rectangle_for(512, b_size)
        seed = int(rng.integers(2**31))
        checker = AegisRwPChecker(rect, pointers, np.random.default_rng(seed), samples=8)
        replay = np.random.default_rng(seed)
        offsets = np.array([int(o) for o in rng.choice(512, size=80, replace=False)])
        for f in range(1, offsets.size + 1):
            alive = checker.add_fault(int(offsets[f - 1]), 0)
            if f <= pointers and (f // 2) * ((f + 1) // 2) < b_size:
                assert alive  # every split fits: no draw
                continue
            patterns = replay.integers(0, 2, size=(8, f), dtype=np.uint8).astype(bool)
            faults = offsets[:f].tolist()
            expected = all(
                budget_walk(
                    rect,
                    [o for o, w in zip(faults, p) if w],
                    [o for o, w in zip(faults, p) if not w],
                    pointers,
                )
                is not None
                for p in patterns
            )
            assert alive == expected
            if not alive:
                break
        assert not checker.alive

    def test_aegis_rw_controller_agrees_per_pattern(self, rng):
        """Pattern-level agreement with the real Aegis-rw controller."""
        form = formation(23, 23, 512)
        offsets = [int(o) for o in rng.choice(512, size=16, replace=False)]
        stuck = {o: int(rng.integers(0, 2)) for o in offsets}
        rom = collision_rom_for(form.rect)
        for _ in range(20):
            data = random_data(rng, 512)
            wrong = [o for o in offsets if stuck[o] != data[o]]
            right = [o for o in offsets if stuck[o] == data[o]]
            predicted_ok = first_free_slope(rw_poisoned_mask(rom, wrong, right)) is not None
            cells = CellArray(512)
            for o in offsets:
                cells.inject_fault(o, stuck_value=stuck[o])
            controller = AegisRwScheme(cells, form)
            if predicted_ok:
                controller.write(data)
                assert np.array_equal(controller.read(), data)
            else:
                with pytest.raises(UncorrectableError):
                    controller.write(data)

    def test_rdis_vectorised_matches_scalar(self, rng):
        """The bitmask-vectorised RDIS predicate equals the reference
        rdis_mask construction for every sampled pattern."""
        rows = cols = 8
        for _ in range(30):
            n_faults = int(rng.integers(2, 10))
            offsets = rng.choice(64, size=n_faults, replace=False)
            stuck = rng.integers(0, 2, size=n_faults).astype(np.uint8)
            frows = offsets // cols
            fcols = offsets % cols
            data_bits = rng.integers(0, 2, size=(5, n_faults), dtype=np.uint8)
            fails_vec = _any_rdis_failure(frows, fcols, stuck, data_bits, 2)
            fails_ref = False
            for pattern in data_bits:
                data = np.zeros(64, dtype=np.uint8)
                data[offsets] = pattern
                if rdis_mask(dict(zip(map(int, offsets), map(int, stuck))), data, rows, cols, 2) is None:
                    fails_ref = True
            assert fails_vec == fails_ref


class TestSaferCacheChecker:
    def test_never_dies_before_plain_safer(self):
        """The cache only relaxes the collision criterion, so on the same
        fault order the cache checker must survive at least as long as the
        plain incremental checker."""
        for trial in range(8):
            stream = np.random.default_rng(500 + trial)
            faults = [
                (int(o), int(stream.integers(0, 2)))
                for o in stream.permutation(512)[:60]
            ]
            d_plain = feed_faults(SaferIncrementalChecker(512, 32), faults)
            d_cache = feed_faults(
                SaferCacheChecker(512, 32, np.random.default_rng(trial), samples=32),
                faults,
            )
            assert d_plain is not None
            assert d_cache is None or d_cache >= d_plain

    def test_vector_grows_only(self, rng):
        checker = SaferCacheChecker(512, 32, rng, samples=16)
        previous = checker.positions
        for offset in rng.permutation(512)[:20]:
            if not checker.add_fault(int(offset), int(rng.integers(0, 2))):
                break
            assert set(previous) <= set(checker.positions)
            previous = checker.positions

    def test_agrees_with_controller_per_pattern(self, rng):
        """Feed the same faults; when the checker dies, the controller with
        the same grown vector must fail on some sampled data pattern."""
        from repro.schemes.safer import grow_vector_for_mixing

        for trial in range(5):
            stream = np.random.default_rng(600 + trial)
            checker = SaferCacheChecker(
                512, 32, np.random.default_rng(trial), samples=64
            )
            stuck_values = {}
            for offset in stream.permutation(512):
                offset = int(offset)
                stuck = int(stream.integers(0, 2))
                stuck_values[offset] = stuck
                if not checker.add_fault(offset, stuck):
                    break
            # reproduce the kill: with the checker's final vector state,
            # some W/R split of these faults cannot be un-mixed
            offsets = checker.fault_offsets
            found_kill = False
            kill_rng = np.random.default_rng(trial + 1000)
            for _ in range(512):
                wrong_mask = kill_rng.integers(0, 2, size=len(offsets)).astype(bool)
                wrong = [o for o, w in zip(offsets, wrong_mask) if w]
                right = [o for o, w in zip(offsets, wrong_mask) if not w]
                if grow_vector_for_mixing(checker.positions, wrong, right, 5, 9) is None:
                    found_kill = True
                    break
            assert found_kill


class TestSimpleCheckers:
    def test_ecp_death_at_budget_plus_one(self):
        checker = EcpChecker(pointers=3)
        faults = [(i, 0) for i in range(10)]
        assert feed_faults(checker, faults) == 3  # 4th fault (index 3) kills

    def test_hamming_death_on_word_collision(self):
        rng = np.random.default_rng(0)
        checker = HammingChecker(512, rng)
        assert checker.add_fault(0, 0)     # word 0
        assert checker.add_fault(70, 1)    # word 1
        assert not checker.add_fault(63, 0)  # word 0 again -> dead

    def test_no_protection_dies_immediately(self):
        checker = NoProtectionChecker()
        assert not checker.add_fault(0, 1)

    def test_dead_checkers_stay_dead(self):
        for checker in (
            EcpChecker(1),
            NoProtectionChecker(),
            SaferIncrementalChecker(512, 2),
        ):
            faults = [(i, 0) for i in range(20)]
            death = feed_faults(checker, faults)
            assert death is not None
            assert not checker.add_fault(death + 100, 0)


class TestDynamicAblation:
    def test_dynamic_never_dies_before_static(self):
        rect = rectangle_for(512, 23)
        for trial in range(5):
            stream = np.random.default_rng(400 + trial)
            faults = [
                (int(o), int(stream.integers(0, 2)))
                for o in stream.permutation(512)[:40]
            ]
            d_static = feed_faults(AegisChecker(rect), faults)
            d_dynamic = feed_faults(
                AegisDynamicChecker(rect, np.random.default_rng(trial), samples=16),
                faults,
            )
            assert d_static is not None
            if d_dynamic is not None:
                assert d_dynamic >= d_static
