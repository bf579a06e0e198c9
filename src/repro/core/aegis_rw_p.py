"""Aegis-rw-p: Aegis-rw with group pointers instead of an inversion vector
(paper §2.4, final part).

When the expected fault count is well below the group count ``B``, storing a
``B``-bit inversion vector is wasteful.  Aegis-rw-p records the IDs of at
most ``p`` groups instead, exploiting the pigeonhole principle: with ``f``
faults split into ``f_W`` stuck-at-wrong and ``f_R`` stuck-at-right, either
``f_W <= floor(f/2)`` or ``f_R <= floor(f/2)``, so one of the following two
encodings always fits ``p = floor(f/2)`` pointers at the scheme's hard FTC:

* **W mode** (block-inversion flag clear): the groups containing W faults
  are stored inverted and their IDs are recorded.  Read: re-invert the
  pointed groups.
* **R mode** (block-inversion flag set): every group *except* those
  containing R faults is stored inverted and the R-group IDs are recorded.
  Read: invert the pointed (R) groups, then invert the entire block.

Soft behaviour goes beyond the hard guarantee: the controller searches all
unpoisoned slopes for one whose W-group or R-group count fits the pointer
budget, so a lucky fault layout can be tolerated well past the hard FTC —
and an unlucky one can exhaust the pointers early (the paper: "use of fixed
number of pointers can compromise reliability in terms of soft FTC").
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.aegis_rw import classify_faults, rw_poisoned_mask
from repro.core.collision import CollisionROM, collision_rom_for, free_slopes
from repro.core.formations import Formation, aegis_rw_hard_ftc
from repro.core.partition import AegisPartition, partition_for
from repro.errors import ConfigurationError, UncorrectableError
from repro.pcm.cell import CellArray
from repro.schemes.base import FaultKnowledge, OracleKnowledge, RecoveryScheme, WriteReceipt
from repro.util.bitops import ceil_log2


def fit_pointer_budget(
    partition: AegisPartition,
    poisoned: np.ndarray,
    wrong: Sequence[int],
    right: Sequence[int],
    pointers: int,
    start: int = 0,
) -> tuple[int, list[int], bool] | None:
    """The Aegis-rw-p pointer-budget search.

    Walks the unpoisoned slopes from ``start`` (wrapping) to the first one
    whose W groups (W mode) or, failing that, R groups (R mode) fit within
    ``pointers``.  Returns ``(slope, pointed groups, block_inverted)``, or
    ``None`` when no unpoisoned slope fits the budget.
    """
    walk = free_slopes(poisoned, start)
    fits_w = partition.group_counts(walk, wrong) <= pointers
    fits = np.flatnonzero(fits_w | (partition.group_counts(walk, right) <= pointers))
    if fits.size == 0:
        return None
    slope = int(walk[fits[0]])
    if fits_w[fits[0]]:
        return slope, partition.groups_hit(slope, wrong), False
    return slope, partition.groups_hit(slope, right), True


class AegisRwPScheme(RecoveryScheme):
    """Aegis-rw-p bound to one cell array.

    Parameters
    ----------
    cells:
        The block's cell array.
    formation:
        The ``A x B`` formation.
    pointers:
        Pointer budget ``p`` (the paper evaluates e.g. 23x23 with 4,
        17x31 with 5, 9x61 and 8x71 with 9).
    knowledge:
        Fail-cache view; defaults to the perfect cache.
    """

    def __init__(
        self,
        cells: CellArray,
        formation: Formation,
        pointers: int,
        knowledge: FaultKnowledge | None = None,
    ) -> None:
        super().__init__(cells)
        if cells.n_bits != formation.n_bits:
            raise ValueError(
                f"cell array has {cells.n_bits} bits but formation "
                f"{formation.name} expects {formation.n_bits}"
            )
        if pointers < 1:
            raise ConfigurationError("Aegis-rw-p needs at least one pointer")
        self.formation = formation
        self.pointers = pointers
        self.partition: AegisPartition = partition_for(formation.rect)
        self.rom: CollisionROM = collision_rom_for(formation.rect)
        self.knowledge = knowledge if knowledge is not None else OracleKnowledge()
        self.slope = 0
        self.block_inverted = False  # the R-mode flag
        self.pointed_groups: list[int] = []

    # -- identity ----------------------------------------------------------

    @property
    def name(self) -> str:
        return f"Aegis-rw-p {self.formation.name} p={self.pointers}"

    @property
    def overhead_bits(self) -> int:
        """Slope counter + ``p`` group pointers + mode flag +
        all-pointers-used flag."""
        return ceil_log2(self.formation.b_size) * (1 + self.pointers) + 2

    @property
    def hard_ftc(self) -> int:
        """Guaranteed tolerance: limited by both the slope supply and the
        pointer budget (``p`` pointers guarantee ``2p`` faults, or ``2p+1``
        since ``floor(f/2)`` pointers suffice for odd ``f``)."""
        return min(aegis_rw_hard_ftc(self.formation.b_size), 2 * self.pointers + 1)

    # -- data path -----------------------------------------------------------

    def _stored_mask(self, slope: int, pointed: list[int], block_inverted: bool) -> np.ndarray:
        """0/1 mask of bits stored inverted for the given metadata."""
        group_mask = (
            self.partition.members_mask(slope, pointed)
            if pointed
            else np.zeros(self.cells.n_bits, dtype=np.uint8)
        )
        if block_inverted:
            # pointed (R) groups plain, everything else inverted
            return np.bitwise_xor(group_mask, 1)
        return group_mask

    def _plan(self, data: np.ndarray) -> tuple[int, list[int], bool]:
        """Choose ``(slope, pointed groups, block_inverted)`` for ``data``.

        Scans every unpoisoned slope (starting from the current one) for an
        encoding within the pointer budget; prefers the current slope to
        avoid gratuitous metadata churn.
        """
        faults = self.knowledge.known_faults(self.cells)
        wrong, right = classify_faults(faults, data)
        poisoned = rw_poisoned_mask(self.rom, wrong, right)
        plan = fit_pointer_budget(self.partition, poisoned, wrong, right, self.pointers, self.slope)
        if plan is not None:
            return plan
        raise UncorrectableError(
            f"{self.name}: no slope fits {len(wrong)} W / {len(right)} R faults "
            f"within {self.pointers} pointers",
            fault_offsets=tuple(sorted(faults)),
        )

    def _encode_write(self, data: np.ndarray) -> WriteReceipt:
        receipt = WriteReceipt()
        max_attempts = self.cells.n_bits + 2
        for _ in range(max_attempts):
            slope, pointed, block_inverted = self._plan(data)
            self.slope = slope
            self.pointed_groups = pointed
            self.block_inverted = block_inverted
            stored_form = np.bitwise_xor(
                data, self._stored_mask(slope, pointed, block_inverted)
            )
            receipt.cell_writes += self.cells.write(stored_form)
            receipt.verification_reads += 1
            mismatches = self.cells.verify(stored_form)
            if mismatches.size == 0:
                return receipt
            receipt.inversion_writes += 1
            for offset in mismatches:
                stored = int(self.cells.read()[offset])
                self.knowledge.record(self.cells, int(offset), stored)
        raise AssertionError(
            f"{self.name}: write service did not converge"
        )  # pragma: no cover - each retry learns a new fault

    def read(self) -> np.ndarray:
        mask = self._stored_mask(self.slope, self.pointed_groups, self.block_inverted)
        return np.bitwise_xor(self.cells.read(), mask)
