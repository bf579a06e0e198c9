"""Property-based tests of cross-module invariants (hypothesis).

These are the invariants the paper's correctness argument rests on,
checked on randomly generated formations, fault patterns, and data:

1. Theorem 2 on arbitrary valid rectangles (not just the paper's).
2. Round-trip correctness of every scheme within its hard FTC, for any
   fault placement, stuck values, and data.
3. The hard-FTC formulas never over-promise: the guarantee bound derived
   from the slope supply is achievable by construction.
4. Theorem 2 as an oracle: within the hard FTC every checker, batch
   kernel and controller built on the poisoned-slope arithmetic keeps the
   block alive, at 9x61 and 8x71.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.aegis import AegisScheme
from repro.core.aegis_rw import AegisRwScheme
from repro.core.aegis_rw_p import AegisRwPScheme
from repro.core.collision import MAX_SLOPE_BITS, collision_rom_for
from repro.core.formations import aegis_hard_ftc, aegis_rw_hard_ftc, formation
from repro.core.geometry import rectangle_for
from repro.pcm.cell import CellArray
from repro.schemes.ecp import EcpScheme
from repro.schemes.rdis import RdisScheme
from repro.schemes.safer import SaferScheme
from repro.sim.batch import _aegis_death_index
from repro.sim.checkers import AegisChecker, AegisRwChecker
from repro.sim.kernels import batch_checker_for
from repro.sim.roster import aegis_spec
from repro.util.primes import primes_in_range

#: valid primes for small random rectangles
SMALL_PRIMES = primes_in_range(3, 24)


@st.composite
def rectangles(draw):
    b_size = draw(st.sampled_from(SMALL_PRIMES))
    a_size = draw(st.integers(min_value=1, max_value=b_size))
    max_bits = a_size * b_size
    min_bits = (a_size - 1) * b_size + 1
    n_bits = draw(st.integers(min_value=min_bits, max_value=max_bits))
    return rectangle_for(n_bits, b_size)


class TestTheorem2Property:
    @settings(max_examples=60, deadline=None)
    @given(rectangles(), st.data())
    def test_pair_collides_on_at_most_one_slope(self, rect, data):
        if rect.n_bits < 2:
            return
        o1 = data.draw(st.integers(0, rect.n_bits - 1))
        o2 = data.draw(st.integers(0, rect.n_bits - 1))
        if o1 == o2:
            return
        collisions = [
            k for k in range(rect.b_size)
            if rect.group_of(o1, k) == rect.group_of(o2, k)
        ]
        assert len(collisions) <= 1
        expected = rect.collision_slope(o1, o2)
        assert collisions == ([] if expected is None else [expected])


@st.composite
def fault_pattern(draw, n_bits, max_faults):
    count = draw(st.integers(min_value=0, max_value=max_faults))
    offsets = draw(
        st.lists(
            st.integers(0, n_bits - 1), min_size=count, max_size=count, unique=True
        )
    )
    stuck = draw(
        st.lists(st.integers(0, 1), min_size=count, max_size=count)
    )
    return list(zip(offsets, stuck))


def exercise(scheme, rng, writes=4):
    for _ in range(writes):
        data = rng.integers(0, 2, scheme.cells.n_bits, dtype=np.uint8)
        scheme.write(data)
        assert np.array_equal(scheme.read(), data)


COMMON_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestHardFtcRoundtrips:
    """Within hard FTC, every scheme must store arbitrary data for
    arbitrary fault placements and stuck values."""

    @COMMON_SETTINGS
    @given(fault_pattern(512, aegis_hard_ftc(31)), st.integers(0, 2**31))
    def test_aegis_17x31(self, faults, seed):
        cells = CellArray(512)
        for offset, stuck in faults:
            cells.inject_fault(offset, stuck_value=stuck)
        exercise(AegisScheme(cells, formation(17, 31, 512)),
                 np.random.default_rng(seed))

    @COMMON_SETTINGS
    @given(fault_pattern(512, aegis_rw_hard_ftc(31)), st.integers(0, 2**31))
    def test_aegis_rw_17x31(self, faults, seed):
        cells = CellArray(512)
        for offset, stuck in faults:
            cells.inject_fault(offset, stuck_value=stuck)
        exercise(AegisRwScheme(cells, formation(17, 31, 512)),
                 np.random.default_rng(seed))

    @COMMON_SETTINGS
    @given(fault_pattern(512, 11), st.integers(0, 2**31))
    def test_aegis_rw_p_17x31(self, faults, seed):
        # 5 pointers + B=31 slopes guarantee 11 faults (see test_aegis_rw_p)
        cells = CellArray(512)
        for offset, stuck in faults:
            cells.inject_fault(offset, stuck_value=stuck)
        exercise(AegisRwPScheme(cells, formation(17, 31, 512), pointers=5),
                 np.random.default_rng(seed))

    @COMMON_SETTINGS
    @given(fault_pattern(512, 6), st.integers(0, 2**31))
    def test_ecp6(self, faults, seed):
        cells = CellArray(512)
        for offset, stuck in faults:
            cells.inject_fault(offset, stuck_value=stuck)
        exercise(EcpScheme(cells, 6), np.random.default_rng(seed))

    @COMMON_SETTINGS
    @given(
        fault_pattern(512, 6),
        st.sampled_from(["incremental", "exhaustive"]),
        st.integers(0, 2**31),
    )
    def test_safer32(self, faults, policy, seed):
        cells = CellArray(512)
        for offset, stuck in faults:
            cells.inject_fault(offset, stuck_value=stuck)
        exercise(SaferScheme(cells, 32, policy=policy),
                 np.random.default_rng(seed))

    @COMMON_SETTINGS
    @given(fault_pattern(512, 3), st.integers(0, 2**31))
    def test_rdis3(self, faults, seed):
        cells = CellArray(512)
        for offset, stuck in faults:
            cells.inject_fault(offset, stuck_value=stuck)
        exercise(RdisScheme(cells), np.random.default_rng(seed))


class TestMoreHardFtcRoundtrips:
    @COMMON_SETTINGS
    @given(fault_pattern(512, 6), st.integers(0, 2**31))
    def test_safer32_cache(self, faults, seed):
        from repro.schemes.safer import SaferCacheScheme

        cells = CellArray(512)
        for offset, stuck in faults:
            cells.inject_fault(offset, stuck_value=stuck)
        exercise(SaferCacheScheme(cells, 32), np.random.default_rng(seed))

    @COMMON_SETTINGS
    @given(st.integers(0, 7), st.integers(0, 63), st.integers(0, 1),
           st.integers(0, 2**31))
    def test_hamming_one_fault_per_word(self, word, bit, stuck, seed):
        from repro.schemes.hamming import HammingScheme

        cells = CellArray(512)
        cells.inject_fault(word * 64 + bit, stuck_value=stuck)
        exercise(HammingScheme(cells), np.random.default_rng(seed))

    @COMMON_SETTINGS
    @given(fault_pattern(512, 8), st.integers(0, 2**31))
    def test_payg_block_with_gec(self, faults, seed):
        """A PAYG block with an available GEC slot inherits the GEC scheme's
        guarantee (Aegis 17x31: 8 faults)."""
        from repro.payg.payg import GecPool, PaygBlock

        cells = CellArray(512)
        for offset, stuck in faults:
            cells.inject_fault(offset, stuck_value=stuck)
        block = PaygBlock(
            cells,
            GecPool(1),
            lambda c: AegisScheme(c, formation(17, 31, 512)),
        )
        exercise(block, np.random.default_rng(seed))


class TestMetadataInvariants:
    """Structural invariants of controller state after arbitrary traffic."""

    @COMMON_SETTINGS
    @given(fault_pattern(512, 10), st.integers(0, 2**31))
    def test_aegis_state_wellformed(self, faults, seed):
        cells = CellArray(512)
        for offset, stuck in faults:
            cells.inject_fault(offset, stuck_value=stuck)
        scheme = AegisScheme(cells, formation(9, 61, 512))
        rng = np.random.default_rng(seed)
        for _ in range(4):
            scheme.write(rng.integers(0, 2, 512, dtype=np.uint8))
            assert 0 <= scheme.slope < 61
            assert set(np.unique(scheme.inversion)) <= {0, 1}
            # the inversion vector never flags more groups than exist
            assert scheme.inversion.sum() <= 61

    @COMMON_SETTINGS
    @given(fault_pattern(512, 11), st.integers(0, 2**31))
    def test_rw_p_pointer_budget_respected(self, faults, seed):
        cells = CellArray(512)
        for offset, stuck in faults:
            cells.inject_fault(offset, stuck_value=stuck)
        scheme = AegisRwPScheme(cells, formation(17, 31, 512), pointers=5)
        rng = np.random.default_rng(seed)
        for _ in range(4):
            scheme.write(rng.integers(0, 2, 512, dtype=np.uint8))
            assert len(scheme.pointed_groups) <= 5
            assert len(set(scheme.pointed_groups)) == len(scheme.pointed_groups)


class TestSlopeSupplyBound:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(primes_in_range(5, 80)))
    def test_hard_ftc_bounds(self, b_size):
        f = aegis_hard_ftc(b_size)
        assert f * (f - 1) // 2 + 1 <= b_size
        f_next = f + 1
        assert f_next * (f_next - 1) // 2 + 1 > b_size
        assert aegis_rw_hard_ftc(b_size) >= f


#: the Theorem-2 oracle formations: one inside the vector kernels' 63-slope
#: bitset, one beyond it
ORACLE_FORMATIONS = ((9, 61), (8, 71))


@st.composite
def hard_ftc_faults(draw, hard_ftc):
    """A formation and exactly ``hard_ftc(B)`` distinct faults with random
    stuck values."""
    a_size, b_size = draw(st.sampled_from(ORACLE_FORMATIONS))
    count = hard_ftc(b_size)
    offsets = draw(st.lists(st.integers(0, 511), min_size=count, max_size=count, unique=True))
    stuck = draw(st.lists(st.integers(0, 1), min_size=count, max_size=count))
    return formation(a_size, b_size, 512), list(zip(offsets, stuck))


class TestTheorem2Oracles:
    """Within the hard FTC no fault set poisons every slope: ``C(f,2)+1 <=
    B`` for plain Aegis, ``floor(f/2)*ceil(f/2)+1 <= B`` for Aegis-rw.  Every
    checker, kernel and controller built on the poisoned-slope arithmetic
    must keep such a block alive."""

    @COMMON_SETTINGS
    @given(hard_ftc_faults(aegis_hard_ftc), st.integers(0, 2**31))
    def test_plain_aegis_survives_hard_ftc(self, case, seed):
        form, faults = case
        f = len(faults)
        assert f * (f - 1) // 2 + 1 <= form.b_size
        offsets = np.array([offset for offset, _ in faults], dtype=np.int64)
        checker = AegisChecker(form.rect)
        assert all(checker.add_fault(int(o), 0) for o in offsets)
        if form.b_size <= MAX_SLOPE_BITS:
            batch = batch_checker_for(aegis_spec(form.a_size, form.b_size, 512), 2)
            rows = np.stack([offsets, offsets[::-1]])
            active = np.ones(2, dtype=bool)
            for step in range(f):
                assert batch.add_faults(np.ascontiguousarray(rows[:, step]), active).all()
            assert (_aegis_death_index(rows, form) > f).all()
        cells = CellArray(512)
        for offset, stuck in faults:
            cells.inject_fault(offset, stuck_value=stuck)
        exercise(AegisScheme(cells, form), np.random.default_rng(seed))

    @COMMON_SETTINGS
    @given(hard_ftc_faults(aegis_rw_hard_ftc), st.integers(0, 2**31))
    def test_aegis_rw_survives_hard_ftc(self, case, seed):
        form, faults = case
        f = len(faults)
        assert (f // 2) * ((f + 1) // 2) + 1 <= form.b_size
        offsets = [offset for offset, _ in faults]
        rng = np.random.default_rng(seed)
        splits = rng.integers(0, 2, size=(64, f)).astype(bool)
        assert not collision_rom_for(form.rect).poisoned_mask(offsets, splits).all(axis=1).any()
        checker = AegisRwChecker(form.rect, rng)
        assert all(checker.add_fault(o, 0) for o in offsets)
        cells = CellArray(512)
        for offset, stuck in faults:
            cells.inject_fault(offset, stuck_value=stuck)
        exercise(AegisRwScheme(cells, form), rng)
