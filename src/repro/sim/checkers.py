"""Incremental block-recoverability checkers for the Monte Carlo engines.

The bit-accurate controllers in :mod:`repro.core` and :mod:`repro.schemes`
service every write; at the paper's scale (1e8-write endurance, billions of
page writes) that is infeasible, and also unnecessary: between two cell
deaths the fault set of a block is constant, so the only question the
simulation must answer is *"with this fault set, can the scheme still store
arbitrary data?"* — asked once per fault arrival.

Each checker consumes fault arrivals one at a time via
:meth:`BlockChecker.add_fault` and answers that question incrementally.
Two families exist:

* **static** checkers, for schemes whose recoverability is data-independent
  (plain Aegis, SAFER without a cache, ECP): the survival condition is an
  exact set property of the fault locations.  For Aegis it is "some slope
  separates all faults" — by Theorem 2 each fault pair poisons exactly one
  slope, so the block lives while fewer than ``B`` slopes are poisoned.
* **sampled** checkers, for schemes whose recoverability depends on the
  written data (Aegis-rw/-rw-p, SAFER-cache, RDIS, Hamming): each fault
  arrival draws ``samples`` random data patterns at the fault positions —
  standing in for the millions of real writes that hit the block before
  the next fault arrives — and the block dies on the first unrecoverable
  pattern, exactly the paper's failure criterion.

Every checker is cross-validated against its bit-accurate controller in
``tests/test_checkers.py``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Protocol

import numpy as np

from repro.core.aegis_rw_p import fit_pointer_budget
from repro.core.collision import collision_rom_for, first_free_slope
from repro.core.geometry import Rectangle
from repro.core.partition import partition_for
from repro.errors import ConfigurationError
from repro.schemes.safer import best_extension, grow_vector_for_mixing, vector_value
from repro.util.bitops import ceil_log2

#: default number of data patterns sampled per fault arrival
DEFAULT_SAMPLES = 128


class BlockChecker(Protocol):
    """Incremental survival oracle for one data block."""

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        """Record a new stuck cell; ``False`` means the block just failed."""

    def group_members(self, offset: int) -> np.ndarray:
        """Bits sharing a recovery group with ``offset`` under the current
        configuration — the cells that suffer extra inversion-write wear.
        Empty for schemes without group inversion."""


def _draw_patterns(
    rng: np.random.Generator, samples: int, n_faults: int
) -> np.ndarray:
    """Random data bits at the fault positions, shape ``(samples, n_faults)``."""
    return rng.integers(0, 2, size=(samples, n_faults), dtype=np.uint8)


@lru_cache(maxsize=None)
def _safer_vectors(addr_bits: int, max_positions: int) -> tuple[tuple[int, ...], ...]:
    """All candidate SAFER partition vectors for a block geometry — shared
    across the thousands of checkers a page study constructs."""
    return tuple(combinations(range(addr_bits), max_positions))


@lru_cache(maxsize=None)
def _vector_group_ids(n_bits: int, vector: tuple[int, ...]) -> np.ndarray:
    """Group ID of every block bit under a SAFER partition vector, as a
    shared read-only ``int64`` array."""
    offsets = np.arange(n_bits, dtype=np.int64)
    ids = np.zeros(n_bits, dtype=np.int64)
    for i, position in enumerate(vector):
        ids |= ((offsets >> position) & 1) << i
    ids.flags.writeable = False
    return ids


# ---------------------------------------------------------------------------
# Plain Aegis (static)
# ---------------------------------------------------------------------------


class AegisChecker:
    """Static survival for plain ``A x B`` Aegis.

    Alive iff some slope separates all faults into distinct groups.  Each
    new fault poisons at most one new slope per existing fault (the unique
    colliding slope of the pair, Theorem 2); the block dies when all ``B``
    slopes are poisoned.
    """

    def __init__(self, rect: Rectangle) -> None:
        self.rect = rect
        self._rom = collision_rom_for(rect)
        self._partition = partition_for(rect)
        self.fault_offsets: list[int] = []
        self.poisoned = np.zeros(rect.b_size, dtype=bool)
        # the lowest unpoisoned slope (the configuration a controller would
        # settle on); it only moves up, as the poisoned set only grows
        self.slope = 0
        self.alive = True

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        if not self.alive:
            return False
        self.fault_offsets.append(offset)
        since = len(self.fault_offsets) - 1
        self.poisoned |= self._rom.poisoned_mask(self.fault_offsets, since=since)[0]
        if self.poisoned[self.slope]:
            found = first_free_slope(self.poisoned, self.slope)
            self.alive = found is not None
            if found is not None:
                self.slope = found[0]
        return self.alive

    def group_members(self, offset: int) -> np.ndarray:
        if not self.alive:
            return np.empty(0, dtype=np.int64)
        group = self._partition.group_of(offset, self.slope)
        return self._partition.members_array(group, self.slope)


# ---------------------------------------------------------------------------
# Aegis-rw (sampled)
# ---------------------------------------------------------------------------


class AegisRwChecker:
    """Sampled survival for Aegis-rw.

    A data pattern is recoverable iff some slope has no (W, R) cross-pair
    collision.  For each sampled pattern the poisoned-slope set is the
    collision slopes of all W x R fault pairs; the pattern fails when that
    set covers all ``B`` slopes.  Patterns with too few cross pairs to cover
    ``B`` slopes are skipped analytically.
    """

    def __init__(
        self,
        rect: Rectangle,
        rng: np.random.Generator,
        samples: int = DEFAULT_SAMPLES,
    ) -> None:
        self.rect = rect
        self.rng = rng
        self.samples = samples
        self._rom = collision_rom_for(rect)
        self.fault_offsets: list[int] = []
        self.alive = True

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        if not self.alive:
            return False
        self.fault_offsets.append(offset)
        f = len(self.fault_offsets)
        # max cross pairs over any W/R split; below B no pattern can fail
        if (f // 2) * ((f + 1) // 2) < self.rect.b_size:
            return True
        wrong = _draw_patterns(self.rng, self.samples, f)
        poisoned = self._rom.poisoned_mask(self.fault_offsets, wrong)
        self.alive = not poisoned.all(axis=1).any()
        return self.alive

    def group_members(self, offset: int) -> np.ndarray:
        """Aegis-rw performs single-pass writes (no extra inversion wear)."""
        return np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# Aegis-rw-p (sampled)
# ---------------------------------------------------------------------------


class AegisRwPChecker:
    """Sampled survival for Aegis-rw-p with a ``p``-pointer budget.

    A pattern is recoverable iff some unpoisoned slope exists at which the
    W-fault groups or the R-fault groups fit within ``p`` pointers.  The
    poisoned masks of all sampled patterns come from one batched call.
    Fast path: patterns with ``min(f_W, f_R) <= p`` succeed at any
    unpoisoned slope (group count <= fault count), so the pointer-budget
    search only runs for patterns where both sides exceed the budget.
    """

    def __init__(
        self,
        rect: Rectangle,
        pointers: int,
        rng: np.random.Generator,
        samples: int = DEFAULT_SAMPLES,
    ) -> None:
        if pointers < 1:
            raise ConfigurationError("Aegis-rw-p needs at least one pointer")
        self.rect = rect
        self.pointers = pointers
        self.rng = rng
        self.samples = samples
        self._rom = collision_rom_for(rect)
        self._partition = partition_for(rect)
        self.fault_offsets: list[int] = []
        self.alive = True

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        if not self.alive:
            return False
        self.fault_offsets.append(offset)
        f = len(self.fault_offsets)
        if f <= self.pointers and (f // 2) * ((f + 1) // 2) < self.rect.b_size:
            return True  # every split fits the budget and leaves a free slope
        offs = np.asarray(self.fault_offsets, dtype=np.int64)
        wrong = _draw_patterns(self.rng, self.samples, f).astype(bool)
        poisoned = self._rom.poisoned_mask(offs, wrong)
        f_w = wrong.sum(axis=1)
        self.alive = not poisoned.all(axis=1).any() and all(
            fit_pointer_budget(
                self._partition, poisoned[k], offs[wrong[k]], offs[~wrong[k]], self.pointers
            )
            is not None
            for k in np.flatnonzero(np.minimum(f_w, f - f_w) > self.pointers)
        )
        return self.alive

    def group_members(self, offset: int) -> np.ndarray:
        """Single-pass writes: no extra inversion wear."""
        return np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# SAFER (static, exhaustive or incremental) and SAFER-cache (sampled)
# ---------------------------------------------------------------------------


class SaferChecker:
    """Static survival for SAFER-N with the exhaustive re-partition policy.

    Maintains the set of still-viable partition vectors (all combinations
    of ``m`` of the address bits); a vector dies when two faults share a
    value under it.  The block lives while some vector survives.
    """

    def __init__(self, n_bits: int, group_count: int) -> None:
        self.n_bits = n_bits
        self.addr_bits = ceil_log2(n_bits)
        self.max_positions = ceil_log2(group_count)
        self._live: dict[tuple[int, ...], int] = dict.fromkeys(
            _safer_vectors(self.addr_bits, self.max_positions), 0
        )  # vector -> bitmask of used group values
        self.fault_offsets: list[int] = []
        self.alive = True

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        if not self.alive:
            return False
        self.fault_offsets.append(offset)
        doomed = []
        for vector, used in self._live.items():
            bit = 1 << vector_value(offset, vector)
            if used & bit:
                doomed.append(vector)
            else:
                self._live[vector] = used | bit
        for vector in doomed:
            del self._live[vector]
        self.alive = bool(self._live)
        return self.alive

    def current_vector(self) -> tuple[int, ...] | None:
        return next(iter(self._live), None)

    def group_members(self, offset: int) -> np.ndarray:
        vector = self.current_vector()
        if vector is None:
            return np.empty(0, dtype=np.int64)
        ids = _vector_group_ids(self.n_bits, vector)
        return np.flatnonzero(ids == vector_value(offset, vector))


class SaferIncrementalChecker:
    """Static survival for SAFER-N under the faithful incremental policy:
    the vector only grows, one distinguishing position per collision."""

    def __init__(self, n_bits: int, group_count: int) -> None:
        self.n_bits = n_bits
        self.addr_bits = ceil_log2(n_bits)
        self.max_positions = ceil_log2(group_count)
        self.positions: tuple[int, ...] = ()
        self.fault_offsets: list[int] = []
        self.alive = True

    def _collision(self) -> tuple[int, int] | None:
        seen: dict[int, int] = {}
        for offset in self.fault_offsets:
            value = vector_value(offset, self.positions)
            if value in seen:
                return seen[value], offset
            seen[value] = offset
        return None

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        if not self.alive:
            return False
        self.fault_offsets.append(offset)
        while (pair := self._collision()) is not None:
            if len(self.positions) >= self.max_positions:
                self.alive = False
                return False
            added = best_extension(
                self.positions, self.fault_offsets, pair, self.addr_bits
            )
            if added is None:
                self.alive = False
                return False
            self.positions = (*self.positions, added)
        return True

    def group_members(self, offset: int) -> np.ndarray:
        ids = _vector_group_ids(self.n_bits, self.positions)
        return np.flatnonzero(ids == vector_value(offset, self.positions))


class SaferCacheChecker:
    """Sampled survival for SAFER-N-cache on the grow-only hardware vector.

    The fail cache relaxes the collision criterion — only a W fault and an
    R fault sharing a group force a re-partition — but the partition
    vector remains SAFER's append-only structure, so vector state persists
    across sampled patterns exactly as it would across real writes.  The
    block dies when a sampled pattern still has W/R mixing with the vector
    full.
    """

    def __init__(
        self,
        n_bits: int,
        group_count: int,
        rng: np.random.Generator,
        samples: int = DEFAULT_SAMPLES,
    ) -> None:
        if group_count < 2 or group_count & (group_count - 1):
            raise ConfigurationError(
                f"SAFER group count must be a power of two >= 2, got {group_count}"
            )
        self.n_bits = n_bits
        self.group_count = group_count
        self.rng = rng
        self.samples = samples
        self.addr_bits = ceil_log2(n_bits)
        self.max_positions = ceil_log2(group_count)
        self.positions: tuple[int, ...] = ()
        self.fault_offsets: list[int] = []
        self.alive = True

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        if not self.alive:
            return False
        self.fault_offsets.append(offset)
        f = len(self.fault_offsets)
        # no early-out even at small f: the vector must grow in response to
        # the sampled traffic, exactly as the hardware's would
        wrong_masks = _draw_patterns(self.rng, self.samples, f).astype(bool)
        for wrong_mask in wrong_masks:
            wrong = [o for o, w in zip(self.fault_offsets, wrong_mask) if w]
            right = [o for o, w in zip(self.fault_offsets, wrong_mask) if not w]
            grown = grow_vector_for_mixing(
                self.positions, wrong, right, self.max_positions, self.addr_bits
            )
            if grown is None:
                self.alive = False
                return False
            self.positions = grown
        return True

    def group_members(self, offset: int) -> np.ndarray:
        """Cache-assisted single-pass writes: no extra inversion wear."""
        return np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# ECP, RDIS, Hamming, no protection
# ---------------------------------------------------------------------------


class EcpChecker:
    """Static survival for ECP-p: the block dies with fault ``p + 1``
    (under random data the uncovered fault is written wrong almost
    immediately, the paper's 'almost vertical rise')."""

    def __init__(self, pointers: int) -> None:
        self.pointers = pointers
        self.fault_offsets: list[int] = []
        self.alive = True

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        if not self.alive:
            return False
        self.fault_offsets.append(offset)
        self.alive = len(self.fault_offsets) <= self.pointers
        return self.alive

    def group_members(self, offset: int) -> np.ndarray:
        return np.empty(0, dtype=np.int64)


class RdisChecker:
    """Sampled survival for RDIS-``depth`` on the fault coordinates only.

    The recursive invertible-set construction touches healthy cells too,
    but recoverability is decided purely by whether every *fault* ends up
    consistent — so the per-pattern check runs on the fault coordinates,
    vectorised across all sampled patterns with row/column bitmasks.
    ``depth`` follows the paper's naming (RDIS-3): the mask toggles
    ``depth - 1`` times.
    """

    def __init__(
        self,
        n_bits: int,
        rows: int,
        cols: int,
        depth: int,
        rng: np.random.Generator,
        samples: int = DEFAULT_SAMPLES,
    ) -> None:
        if rows > 63 or cols > 63:
            raise ConfigurationError("RdisChecker bitmask fast path caps dims at 63")
        if depth < 2:
            raise ConfigurationError("RDIS needs depth >= 2")
        self.n_bits = n_bits
        self.rows = rows
        self.cols = cols
        self.depth = depth
        self.toggle_levels = depth - 1
        self.rng = rng
        self.samples = samples
        self.fault_offsets: list[int] = []
        self.stuck_values: list[int] = []
        self.alive = True
        # any 3 faults resolve within two toggles (tests/test_rdis.py)
        self._guarantee = 3 if self.toggle_levels >= 2 else 1

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        if not self.alive:
            return False
        self.fault_offsets.append(offset)
        self.stuck_values.append(stuck_value)
        f = len(self.fault_offsets)
        if f <= self._guarantee:
            return True
        offs = np.asarray(self.fault_offsets, dtype=np.int64)
        stuck = np.asarray(self.stuck_values, dtype=np.uint8)
        frows = offs // self.cols
        fcols = offs % self.cols
        data = _draw_patterns(self.rng, self.samples, f)
        self.alive = not _any_rdis_failure(
            frows, fcols, stuck, data, self.toggle_levels
        )
        return self.alive

    def group_members(self, offset: int) -> np.ndarray:
        """Cache-assisted single-pass writes: no extra inversion wear."""
        return np.empty(0, dtype=np.int64)


def _any_rdis_failure(
    frows: np.ndarray,
    fcols: np.ndarray,
    stuck: np.ndarray,
    data: np.ndarray,
    levels: int,
) -> bool:
    """True when some sampled pattern is unrecoverable by RDIS-``levels``.

    Vectorised over patterns: marked rows/columns per pattern are int64
    bitmasks; region membership and the inversion mask are tracked per
    (pattern, fault).
    """
    samples, f = data.shape
    row_bits = np.int64(1) << frows  # (f,)
    col_bits = np.int64(1) << fcols
    mask = np.zeros((samples, f), dtype=np.uint8)
    in_region = np.ones((samples, f), dtype=bool)
    for _ in range(levels):
        wrong = in_region & (stuck[None, :] != (data ^ mask))
        if not wrong.any():
            break
        marked_rows = np.bitwise_or.reduce(
            np.where(wrong, row_bits[None, :], 0), axis=1
        )
        marked_cols = np.bitwise_or.reduce(
            np.where(wrong, col_bits[None, :], 0), axis=1
        )
        in_intersection = (
            ((marked_rows[:, None] >> frows[None, :]) & 1).astype(bool)
            & ((marked_cols[:, None] >> fcols[None, :]) & 1).astype(bool)
        )
        new_region = in_region & in_intersection
        mask ^= new_region.astype(np.uint8)
        in_region = new_region
    still_wrong = stuck[None, :] != (data ^ mask)
    return bool(still_wrong.any())


class HammingChecker:
    """Sampled survival for per-64-bit-word SEC-DED: a pattern fails when
    two faults in one word are both stuck-at-wrong."""

    def __init__(
        self,
        n_bits: int,
        rng: np.random.Generator,
        samples: int = DEFAULT_SAMPLES,
        word_bits: int = 64,
    ) -> None:
        self.n_bits = n_bits
        self.word_bits = word_bits
        self.rng = rng
        self.samples = samples
        self.fault_offsets: list[int] = []
        self.alive = True

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        if not self.alive:
            return False
        self.fault_offsets.append(offset)
        words = np.asarray(self.fault_offsets, dtype=np.int64) // self.word_bits
        new_word = offset // self.word_bits
        collocated = int((words == new_word).sum())
        if collocated < 2:
            return True
        # two+ faults in one word: both wrong with prob 1 - (3/4)^pairs per
        # write; over the inter-fault write stream this is certain death
        self.alive = False
        return False

    def group_members(self, offset: int) -> np.ndarray:
        return np.empty(0, dtype=np.int64)


class NoProtectionChecker:
    """The unprotected baseline: the first fault is fatal."""

    def __init__(self) -> None:
        self.fault_offsets: list[int] = []
        self.alive = True

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        self.fault_offsets.append(offset)
        self.alive = False
        return False

    def group_members(self, offset: int) -> np.ndarray:
        return np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# Dynamic-closure ablation checker for plain Aegis
# ---------------------------------------------------------------------------


class AegisDynamicChecker:
    """Sampled *dynamic* survival for plain Aegis (ablation aid).

    The static :class:`AegisChecker` declares a block dead as soon as no
    slope separates *all* faults.  The real controller only ever sees the
    faults a write's verification reads reveal, so a marginal block can
    limp on until an unlucky data pattern arrives.  This checker replays
    that detection closure for ``samples`` random patterns per fault
    arrival; comparing it against the static criterion quantifies how
    conservative the static cut is (see ``benchmarks/test_ablations.py``).
    """

    def __init__(
        self,
        rect: Rectangle,
        rng: np.random.Generator,
        samples: int = 32,
    ) -> None:
        self.rect = rect
        self.rng = rng
        self.samples = samples
        self._partition = partition_for(rect)
        self.fault_offsets: list[int] = []
        self.stuck_values: list[int] = []
        self.alive = True
        self.slope = 0

    def _pattern_fails(self, data: np.ndarray) -> bool:
        """Replay one write's detection closure without touching cells."""
        offs = np.asarray(self.fault_offsets, dtype=np.int64)
        stuck = np.asarray(self.stuck_values, dtype=np.uint8)
        inversion = np.zeros(self.rect.b_size, dtype=np.uint8)
        slope = self.slope
        detected: set[int] = set()
        table = self._partition.group_table
        for _ in range(4 * len(offs) + self.rect.b_size + 4):
            groups = table[slope, offs]
            stored_wanted = data ^ inversion[groups]
            wrong = np.flatnonzero(stuck != stored_wanted)
            new_wrong = [int(offs[i]) for i in wrong]
            if not new_wrong:
                self.slope = slope
                return False
            detected.update(new_wrong)
            found = self._partition.find_separating_slope(detected, start=slope)
            if found is None:
                return True
            new_slope, _ = found
            if new_slope == slope:
                for i in wrong:
                    inversion[groups[i]] ^= 1
            else:
                slope = new_slope
                inversion[:] = 0
        raise AssertionError("dynamic closure did not converge")  # pragma: no cover

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        if not self.alive:
            return False
        self.fault_offsets.append(offset)
        self.stuck_values.append(stuck_value)
        f = len(self.fault_offsets)
        if (f * (f - 1)) // 2 < self.rect.b_size:
            return True  # all faults separable: no pattern can fail
        for pattern in _draw_patterns(self.rng, self.samples, f):
            if self._pattern_fails(pattern):
                self.alive = False
                return False
        return True

    def group_members(self, offset: int) -> np.ndarray:
        group = self._partition.group_of(offset, self.slope)
        return self._partition.members_array(group, self.slope)
