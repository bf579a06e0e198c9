"""Aegis-rw: the cache-assisted Aegis variant (paper §2.4).

With a fail cache revealing each fault's location and stuck-at value before
a write, faults can be classified against the incoming data as
stuck-at-**W**rong (stuck value differs from the data bit) or
stuck-at-**R**ight (they agree).  A group may then hold *any number* of
same-type faults: inverting a group fixes every W fault in it
simultaneously, and a group of only R faults needs no action at all.  Only
a W and an R fault sharing a group is a real collision.

Aegis-rw therefore:

1. classifies the known faults into W and R for the incoming data;
2. consults the collision ROM (:class:`~repro.core.collision.CollisionROM`)
   for the set of slopes poisoned by some (W, R) cross pair — any other
   slope is collision-free, found with **no trial writes**;
3. sets the inversion vector to exactly the groups containing W faults and
   programs the block in a single pass.

When the fail cache is incomplete (a real, finite cache), the verification
read can still reveal unknown faults; the controller records them into the
cache and retries, degrading gracefully toward basic Aegis behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.core.collision import CollisionROM, collision_rom_for, first_free_slope
from repro.core.formations import Formation, aegis_rw_hard_ftc
from repro.core.partition import AegisPartition, partition_for
from repro.errors import UncorrectableError
from repro.pcm.cell import CellArray
from repro.schemes.base import FaultKnowledge, OracleKnowledge, RecoveryScheme, WriteReceipt
from repro.util.bitops import ceil_log2


def classify_faults(
    faults: dict[int, int], data: np.ndarray
) -> tuple[list[int], list[int]]:
    """Split ``offset -> stuck value`` faults into (wrong, right) for ``data``."""
    wrong = [o for o, stuck in faults.items() if stuck != int(data[o])]
    right = [o for o, stuck in faults.items() if stuck == int(data[o])]
    return wrong, right


def rw_poisoned_mask(rom: CollisionROM, wrong: list[int], right: list[int]) -> np.ndarray:
    """``(B,)`` mask of the slopes on which some W fault shares a group
    with some R fault."""
    split = np.arange(len(wrong) + len(right)) < len(wrong)
    return rom.poisoned_mask(wrong + right, split)[0]


class AegisRwScheme(RecoveryScheme):
    """Aegis-rw bound to one cell array.

    Parameters
    ----------
    cells:
        The block's cell array.
    formation:
        The ``A x B`` formation.
    knowledge:
        Fail-cache view of the block's faults; defaults to the paper's
        perfect cache (:class:`OracleKnowledge`).
    """

    def __init__(
        self,
        cells: CellArray,
        formation: Formation,
        knowledge: FaultKnowledge | None = None,
    ) -> None:
        super().__init__(cells)
        if cells.n_bits != formation.n_bits:
            raise ValueError(
                f"cell array has {cells.n_bits} bits but formation "
                f"{formation.name} expects {formation.n_bits}"
            )
        self.formation = formation
        self.partition: AegisPartition = partition_for(formation.rect)
        self.rom: CollisionROM = collision_rom_for(formation.rect)
        self.knowledge = knowledge if knowledge is not None else OracleKnowledge()
        self.slope = 0
        self.inversion = np.zeros(formation.b_size, dtype=np.uint8)

    # -- identity ----------------------------------------------------------

    @property
    def name(self) -> str:
        return f"Aegis-rw {self.formation.name}"

    @property
    def overhead_bits(self) -> int:
        """Same per-block cost as basic Aegis with the same formation
        (paper §2.4: "they are of the same space cost"); the collision ROM
        is chip-shared hardware."""
        return ceil_log2(self.formation.b_size) + self.formation.b_size

    @property
    def hard_ftc(self) -> int:
        return aegis_rw_hard_ftc(self.formation.b_size)

    # -- data path -----------------------------------------------------------

    def _inversion_mask(self) -> np.ndarray:
        flagged = np.flatnonzero(self.inversion)
        if flagged.size == 0:
            return np.zeros(self.cells.n_bits, dtype=np.uint8)
        return self.partition.members_mask(self.slope, flagged)

    def _plan(self, data: np.ndarray) -> tuple[int, list[int]]:
        """Pick a collision-free slope and the W groups to invert for
        ``data`` given current fault knowledge.  Raises when every slope is
        poisoned."""
        faults = self.knowledge.known_faults(self.cells)
        wrong, right = classify_faults(faults, data)
        found = first_free_slope(rw_poisoned_mask(self.rom, wrong, right), self.slope)
        if found is None:
            raise UncorrectableError(
                f"{self.name}: every slope mixes W and R faults "
                f"({len(wrong)} W, {len(right)} R)",
                fault_offsets=tuple(sorted(faults)),
            )
        slope, _ = found
        return slope, self.partition.groups_hit(slope, wrong)

    def _encode_write(self, data: np.ndarray) -> WriteReceipt:
        receipt = WriteReceipt()
        # retries only happen while verification reads keep revealing faults
        # the cache did not know; each retry records at least one new fault
        max_attempts = self.cells.n_bits + 2
        for _ in range(max_attempts):
            slope, w_groups = self._plan(data)
            self.slope = slope
            self.inversion[:] = 0
            self.inversion[w_groups] = 1
            stored_form = np.bitwise_xor(data, self._inversion_mask())
            receipt.cell_writes += self.cells.write(stored_form)
            receipt.verification_reads += 1
            mismatches = self.cells.verify(stored_form)
            if mismatches.size == 0:
                return receipt
            # the cache missed these faults: learn them and retry
            receipt.inversion_writes += 1
            for offset in mismatches:
                stored = int(self.cells.read()[offset])
                self.knowledge.record(self.cells, int(offset), stored)
        raise AssertionError(
            f"{self.name}: write service did not converge"
        )  # pragma: no cover - each retry learns a new fault

    def read(self) -> np.ndarray:
        return np.bitwise_xor(self.cells.read(), self._inversion_mask())
