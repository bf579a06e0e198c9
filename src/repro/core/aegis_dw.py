"""Aegis-dw: the double-write option the paper describes and rejects (§2.4).

To learn the stuck-at-wrong/right split without a fail cache, a controller
can write the block twice — once with the data, once inverted — because the
two verification reads together reveal *every* fault and its stuck value.
Armed with that knowledge it can plan exactly like Aegis-rw.  The paper
dismisses the option: "all bits in a block have to be written twice ...
making its latency too high and its induced wear too much."

This controller implements the option faithfully so the rejection can be
*measured* rather than asserted: `ext-writecost` and the tests show its
per-request wear is ~5x a plain write (the probe write flips every bit and
the final write flips most back), versus Aegis-rw's ~1x — precisely the
paper's argument.
"""

from __future__ import annotations

import numpy as np

from repro.core.aegis_rw import classify_faults, rw_poisoned_mask
from repro.core.collision import CollisionROM, collision_rom_for, first_free_slope
from repro.core.formations import Formation, aegis_rw_hard_ftc
from repro.core.partition import AegisPartition, partition_for
from repro.errors import UncorrectableError
from repro.pcm.cell import CellArray
from repro.schemes.base import RecoveryScheme, WriteReceipt
from repro.util.bitops import ceil_log2


class AegisDoubleWriteScheme(RecoveryScheme):
    """Aegis with per-write fault discovery via a full inverted probe write."""

    def __init__(self, cells: CellArray, formation: Formation) -> None:
        super().__init__(cells)
        if cells.n_bits != formation.n_bits:
            raise ValueError(
                f"cell array has {cells.n_bits} bits but formation "
                f"{formation.name} expects {formation.n_bits}"
            )
        self.formation = formation
        self.partition: AegisPartition = partition_for(formation.rect)
        self.rom: CollisionROM = collision_rom_for(formation.rect)
        self.slope = 0
        self.inversion = np.zeros(formation.b_size, dtype=np.uint8)

    @property
    def name(self) -> str:
        return f"Aegis-dw {self.formation.name}"

    @property
    def overhead_bits(self) -> int:
        """Metadata matches basic Aegis; the price is paid in writes."""
        return ceil_log2(self.formation.b_size) + self.formation.b_size

    @property
    def hard_ftc(self) -> int:
        return aegis_rw_hard_ftc(self.formation.b_size)

    def _inversion_mask(self) -> np.ndarray:
        flagged = np.flatnonzero(self.inversion)
        if flagged.size == 0:
            return np.zeros(self.cells.n_bits, dtype=np.uint8)
        return self.partition.members_mask(self.slope, flagged)

    def _discover_faults(self, data: np.ndarray, receipt: WriteReceipt) -> dict[int, int]:
        """The double write: plain then inverted, each verified.  Returns
        every fault's stuck value."""
        receipt.cell_writes += self.cells.write(data)
        receipt.verification_reads += 1
        wrong_plain = self.cells.verify(data)
        inverted = np.bitwise_xor(data, 1)
        receipt.cell_writes += self.cells.write(inverted)
        receipt.verification_reads += 1
        wrong_inverted = self.cells.verify(inverted)
        faults: dict[int, int] = {}
        for offset in wrong_plain:
            faults[int(offset)] = 1 - int(data[offset])  # stuck opposite the data
        for offset in wrong_inverted:
            faults[int(offset)] = int(data[offset])  # stuck equal to the data
        return faults

    def _encode_write(self, data: np.ndarray) -> WriteReceipt:
        receipt = WriteReceipt()
        faults = self._discover_faults(data, receipt)
        wrong, right = classify_faults(faults, data)
        found = first_free_slope(rw_poisoned_mask(self.rom, wrong, right), self.slope)
        if found is None:
            raise UncorrectableError(
                f"{self.name}: every slope mixes W and R faults "
                f"({len(wrong)} W, {len(right)} R)",
                fault_offsets=tuple(sorted(faults)),
            )
        slope, _ = found
        self.slope = slope
        self.inversion[:] = 0
        self.inversion[self.partition.groups_hit(slope, wrong)] = 1
        stored_form = np.bitwise_xor(data, self._inversion_mask())
        receipt.cell_writes += self.cells.write(stored_form)
        receipt.verification_reads += 1
        mismatches = self.cells.verify(stored_form)
        if mismatches.size:
            raise AssertionError(
                f"{self.name}: residual mismatch after full discovery"
            )  # pragma: no cover - discovery reveals every fault
        return receipt

    def read(self) -> np.ndarray:
        return np.bitwise_xor(self.cells.read(), self._inversion_mask())
