"""Vectorized service data plane: batch kernels for the write pipeline.

PR 4 proved the batch-kernel technique on the Monte Carlo side
(:mod:`repro.sim.kernels`); this module applies it one layer up, to the
production-shaped service pipeline.  A drained write-buffer batch —
addresses, payloads, per-block fault state — is advanced through
fail-cache consult, health check, differential write + verification and
escalation detection as whole-batch numpy operations, with three pieces:

* :class:`BlockStore` — columnar adoption of every block's cell arrays
  (stored values, stuck masks, stuck values, write counts, endurance)
  into ``(blocks, bits)`` matrices whose *rows are the blocks' own
  arrays* (views, not copies), so scalar code and batch kernels mutate
  the same state.
* Per-scheme kernels (:class:`_XorMaskKernel` for Aegis/SAFER/the
  unprotected baseline, :class:`_EcpKernel`, :class:`_HammingKernel`)
  that classify which rows of a drain are *fast* — serviceable in one
  differential write pass with a clean verification read, or (Aegis) in
  §2.2's two passes around one inversion flip — and commit the
  scheme-side state for those rows in batch.
* :func:`drain_vector` — the whole-drain driver: classify, then walk the
  batch in row order as alternating [fast run][escalation row] segments.
  Fast runs commit as one fancy-indexed batch write (gather → first
  pass → second pass of the inversion-flipped forms → programmed-cell
  counts → wear → scatter); escalation rows (unmapped or dead
  addresses, proactive migrations, repartition walks, spare remaps,
  invalid payloads) fall back to the scalar per-row pipeline.

Bit-identity contract
---------------------
The vector engine reproduces the scalar engine exactly: telemetry
snapshots, trace JSONL and final array state are byte-identical
(asserted across schemes/seeds/workers in ``tests/test_service_kernels.py``).
The argument has three legs:

* **Fast rows are provably one-pass or two-pass.**  Each kernel's
  predicate is evaluated against pre-drain state, which equals
  pre-write state because a drain's rows target distinct logical
  addresses and the logical→physical map is injective — distinct rows
  touch distinct blocks.  A one-pass row's scalar execution performs
  exactly one differential write and one clean verification read,
  touches no RNG, emits no events or spans, and yields receipt
  ``(cell_writes, 1, 0, 0)``.  A two-pass Aegis row has stuck-at-wrong
  cells ``W`` in pairwise distinct groups ``G`` under the current slope
  and no stuck-at-right cell in any group of ``G``.  The scalar walk
  writes, verifies and finds exactly ``W``; ``W`` is separated, so it
  flips the inversion bit of each group in ``G`` and writes again.  Every
  cell of ``G`` now holds its complement, which the stuck cells of ``G``
  (all in ``W``) match, and every cell outside ``G`` is unchanged, where
  all stuck cells are stuck-at-right — so the second verification is
  clean.  The walk adds ``W`` to the learned faults, wears the block
  once after both passes, touches no RNG, emits nothing, and yields
  ``(cw1 + cw2, 2, 0, |G|)`` — all reproduced in batch.
* **Escalation rows run the scalar code itself**, in row order, between
  fast segments, so mid-drain exceptions (strict retirement, invalid
  payloads) leave the array in the same state under both engines.
* **Telemetry is commutative.**  Histograms batch via
  ``searchsorted``/exact integer float sums
  (:meth:`repro.obs.metrics.Histogram.observe_many`), counters add, and
  span sequences are identical because per-drain spans replaced the
  per-write spans in both engines.

Misclassifying a row as slow only costs speed (the scalar path is always
correct); only the fast-direction predicates must be exact, and they are
conservative everywhere cheapness demands it.
"""

from __future__ import annotations

import numpy as np

from repro.core.aegis import AegisScheme
from repro.errors import ConfigurationError
from repro.schemes.base import WriteReceipt
from repro.schemes.ecp import EcpScheme
from repro.schemes.hamming import CHECK_BITS, DATA_BITS, HammingScheme, _H
from repro.schemes.ideal import NoProtectionScheme
from repro.schemes.safer import SaferScheme
from repro.service.health import BlockHealth
from repro.sim.kernels import (
    ENGINES,
    pack_rows_u64,
    popcount_rows_u64,
    validate_engine,
)

__all__ = [
    "ENGINES",
    "BlockStore",
    "drain_vector",
    "kernel_for",
    "resolve_engine",
    "validate_engine",
]

#: attribute under which the per-array kernel (or ``None``) is memoised
_KERNEL_ATTR = "_service_kernel_cache"

#: shared empty consult result (never mutated by consumers)
EMPTY_FAULTS: dict[int, int] = {}


class BlockStore:
    """Columnar matrices over every block's cell state, adopted by view.

    Construction stacks each :class:`~repro.pcm.cell.CellArray`'s private
    arrays into ``(blocks, bits)`` matrices and rebinds the cell arrays'
    fields to the matrix *rows*, so every scalar mutation (differential
    writes, fault injection, wear) lands in the matrices and every batch
    mutation is immediately visible to scalar code.  This is safe because
    ``CellArray`` and ``ProtectedBlock`` mutate their arrays strictly in
    place (verified against masked assignment, ``+=`` and element
    injection — never rebinding).

    Adoption happens *after* normal block construction, so the per-block
    endurance sampling consumes the shared RNG in exactly the seed order
    the scalar-only array used.
    """

    def __init__(self, blocks: list) -> None:
        if not blocks:
            raise ConfigurationError("a block store needs at least one block")
        count = len(blocks)
        bits = blocks[0].cells.n_bits
        self.n_bits = bits
        self.stored = np.empty((count, bits), dtype=np.uint8)
        self.stuck = np.zeros((count, bits), dtype=bool)
        self.stuck_value = np.empty((count, bits), dtype=np.uint8)
        self.write_counts = np.empty((count, bits), dtype=np.int64)
        self.endurance = np.empty((count, bits), dtype=np.float64)
        for index, block in enumerate(blocks):
            cells = block.cells
            if cells.n_bits != bits:
                raise ConfigurationError("block store needs uniform block widths")
            self.stored[index] = cells._stored
            self.stuck[index] = cells._stuck
            self.stuck_value[index] = cells._stuck_value
            self.write_counts[index] = cells._write_counts
            self.endurance[index] = block.endurance
            cells._stored = self.stored[index]
            cells._stuck = self.stuck[index]
            cells._stuck_value = self.stuck_value[index]
            cells._write_counts = self.write_counts[index]
            block.endurance = self.endurance[index]

    def fault_words(self, physical: np.ndarray) -> np.ndarray:
        """Per-block uint64 fault bitsets for the given physical rows."""
        return pack_rows_u64(self.stuck[physical])

    def fault_counts(self, physical: np.ndarray) -> np.ndarray:
        """Stuck-cell counts for the given physical rows."""
        return np.count_nonzero(self.stuck[physical], axis=1)


# ---------------------------------------------------------------------------
# Per-scheme kernels: fast-row classification + scheme-side batch commit
# ---------------------------------------------------------------------------


class _BatchKernel:
    """Defaults for the per-scheme kernels: one pass per fast row and no
    scheme-side state beyond the shared cell matrices."""

    def second_pass(
        self, start: int, stop: int, p: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The second write pass of the fast rows ``[start, stop)`` on
        physical blocks ``p``: ``(second-pass forms, inversion writes per
        row)``, or ``None`` when every row of the segment is one-pass.
        A one-pass row's second form is its first form, so rewriting it
        programs nothing.  Applies the scheme-side state change the scalar
        walk makes between its two passes."""
        return None

    def commit(
        self,
        row_ids: range,
        p: np.ndarray,
        data_rows: np.ndarray,
        form_rows: np.ndarray,
    ) -> np.ndarray | None:
        """Scheme-side commit for one fast segment; returns extra per-row
        cell writes (``None`` when the scheme programs no side cells)."""
        return None


class _XorMaskKernel(_BatchKernel):
    """Aegis / SAFER / unprotected: stored form = data XOR inversion mask.

    A row is *one-pass* iff no stuck cell disagrees with its target form —
    then the scalar ``_encode_write`` returns after one pass with a clean
    verification read, flipping no inversion bits and learning no faults.
    The per-block inversion vectors are adopted into a ``(blocks, groups)``
    matrix (every scheme mutates them strictly in place).

    Aegis rows also have a *two-pass* class (§2.2's inversion write): under
    the block's current slope, the stuck-at-wrong cells of the first-pass
    form fall in pairwise distinct groups and no stuck-at-right cell shares
    a group with any of them.  The scalar walk then verifies, finds exactly
    those cells, sees them separated, flips the inversion bit of each hit
    group, rewrites, and verifies clean — no re-partition, no RNG, no span.
    Both classes are decided in batch from one ``(rows, n)`` group-id
    gather out of the partition's group table and per-group SA-W / SA-R
    counts.  SAFER keeps a per-block mask expansion, cached keyed on its
    partition state, which only changes when the scalar fallback handles
    a new fault.
    """

    def __init__(self, array, kind: str) -> None:
        self.array = array
        self.store: BlockStore = array.store
        self.kind = kind
        if kind == "none":
            self.inversion = None
        else:
            blocks = array.blocks
            groups = len(blocks[0].scheme.inversion)
            inversion = np.zeros((len(blocks), groups), dtype=np.uint8)
            for index, block in enumerate(blocks):
                inversion[index] = block.scheme.inversion
                block.scheme.inversion = inversion[index]
            self.inversion = inversion
        if kind == "aegis":
            table = array.blocks[0].scheme.partition.group_table
            self._gids = table.astype(np.intp)
        self._mask_cache: dict[int, tuple[object, np.ndarray]] = {}
        #: this drain's two-pass plan, aligned with the batch rows:
        #: (second-pass forms, hit groups, stuck-at-wrong cells, inversion
        #: writes), or ``None`` when no row takes a second pass
        self._two_pass: tuple[np.ndarray, ...] | None = None

    def _mask_for(self, physical: int) -> np.ndarray:
        scheme = self.array.blocks[physical].scheme
        key = (scheme.positions, scheme.inversion.tobytes())
        cached = self._mask_cache.get(physical)
        if cached is not None and cached[0] == key:
            return cached[1]
        mask = scheme._inversion_mask().astype(np.uint8)
        self._mask_cache[physical] = (key, mask)
        return mask

    def plan(
        self, phys: np.ndarray, payloads: np.ndarray, candidates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        fast = candidates.copy()
        self._two_pass = None
        rows = np.flatnonzero(candidates)
        if rows.size == 0:
            return fast, payloads
        if self.kind == "aegis":
            return self._plan_aegis(fast, rows, phys[rows], payloads)
        forms = payloads
        if self.inversion is not None:
            inverted = rows[self.inversion[phys[rows]].any(axis=1)]
            if inverted.size:
                forms = payloads.copy()
                for row in inverted:
                    forms[row] = payloads[row] ^ self._mask_for(int(phys[row]))
        p = phys[rows]
        conflict = (
            self.store.stuck[p] & (self.store.stuck_value[p] != forms[rows])
        ).any(axis=1)
        fast[rows[conflict]] = False
        return fast, forms

    def _plan_aegis(
        self,
        fast: np.ndarray,
        rows: np.ndarray,
        p: np.ndarray,
        payloads: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        store = self.store
        inversion = self.inversion
        stuck = store.stuck[p]
        inverted = inversion[p].any(axis=1)
        # only inverted rows need their mask and only faulty rows can
        # conflict; every other row stores its payload in one clean pass
        touched = np.flatnonzero(inverted | stuck.any(axis=1))
        if touched.size == 0:
            return fast, payloads
        sub = rows[touched]
        q = p[touched]
        count = touched.size
        groups = inversion.shape[1]
        blocks = self.array.blocks
        slopes = [blocks[physical].scheme.slope for physical in q.tolist()]
        # cells[i, x]: (row i, group of bit x under row i's slope) as one
        # flat id into a (rows, groups) matrix
        cells = self._gids[slopes]
        cells += (np.arange(count) * groups)[:, None]
        sub_forms = payloads[sub]
        forms = payloads
        if inverted.any():
            sub_forms ^= np.take(inversion[q], cells)
            forms = payloads.copy()
            forms[sub] = sub_forms
        stuck = stuck[touched]
        wrong = stuck & (store.stuck_value[q] != sub_forms)
        bins = count * groups
        wrong_per_group = np.bincount(cells[wrong], minlength=bins)
        right_per_group = np.bincount(cells[stuck & ~wrong], minlength=bins)
        hit = wrong_per_group > 0
        conflict = hit.reshape(count, groups).any(axis=1)
        if not conflict.any():
            return fast, forms
        spoiled = (wrong_per_group > 1) | (hit & (right_per_group > 0))
        spoiled = spoiled.reshape(count, groups).any(axis=1)
        fast[sub[spoiled]] = False
        two_pass = np.flatnonzero(conflict & ~spoiled)
        if two_pass.size:
            batch_rows = sub[two_pass]
            second_forms = forms.copy()
            # flip the cells of every hit group
            second_forms[batch_rows] ^= hit[cells[two_pass]].view(np.uint8)
            hit = hit.reshape(count, groups)[two_pass]
            batch = payloads.shape[0]
            hits = np.zeros((batch, groups), dtype=np.uint8)
            hits[batch_rows] = hit
            learned = np.zeros(payloads.shape, dtype=bool)
            learned[batch_rows] = wrong[two_pass]
            flips = np.zeros(batch, dtype=np.int64)
            flips[batch_rows] = np.count_nonzero(hit, axis=1)
            self._two_pass = (second_forms, hits, learned, flips)
        return fast, forms

    def second_pass(
        self, start: int, stop: int, p: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        if self._two_pass is None:
            return None
        second_forms, hits, learned, flips = self._two_pass
        flips = flips[start:stop]
        local = np.flatnonzero(flips)
        if local.size == 0:
            return None
        # the scalar walk's step between its passes: flip every hit group
        # and remember the faults the first verification read revealed
        self.inversion[p] ^= hits[start:stop]
        learned = learned[start:stop]
        offsets = np.nonzero(learned)[1].tolist()  # row-major: grouped by row
        ends = np.cumsum(np.count_nonzero(learned, axis=1)).tolist()
        blocks = self.array.blocks
        for index in local.tolist():
            first = ends[index - 1] if index else 0
            blocks[int(p[index])].scheme.known_fault_offsets.update(
                offsets[first : ends[index]]
            )
        return second_forms[start:stop], flips


class _EcpKernel(_BatchKernel):
    """ECP with ideal replacement cells (the roster configuration).

    A row is fast iff the entries already allocated plus the stuck-at-wrong
    offsets of the new data fit the pointer budget — then the scalar path
    refreshes every entry, allocates the uncovered offsets in verify order
    and returns ``(cell_writes, 1, 0, 0)``.  The commit replays exactly
    those dict updates (entry dicts hold at most ``pointers`` keys).
    """

    def __init__(self, array) -> None:
        self.array = array
        self.store: BlockStore = array.store
        self.pointers = array.blocks[0].scheme.pointers
        self._pending: dict[int, list[int]] = {}

    def plan(
        self, phys: np.ndarray, payloads: np.ndarray, candidates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        fast = candidates.copy()
        self._pending = {}
        rows = np.flatnonzero(candidates)
        if rows.size == 0:
            return fast, payloads
        p = phys[rows]
        mismatches = self.store.stuck[p] & (
            self.store.stuck_value[p] != payloads[rows]
        )
        any_mismatch = mismatches.any(axis=1)
        blocks = self.array.blocks
        for position, row in enumerate(rows):
            entries = blocks[int(phys[row])].scheme.entries
            if not entries and not any_mismatch[position]:
                continue
            fresh = (
                [
                    int(offset)
                    for offset in np.flatnonzero(mismatches[position])
                    if int(offset) not in entries
                ]
                if any_mismatch[position]
                else []
            )
            if len(entries) + len(fresh) > self.pointers:
                fast[row] = False
                continue
            self._pending[int(row)] = fresh
        return fast, payloads

    def commit(
        self,
        row_ids: range,
        p: np.ndarray,
        data_rows: np.ndarray,
        form_rows: np.ndarray,
    ) -> np.ndarray | None:
        blocks = self.array.blocks
        pending = self._pending
        for index, row in enumerate(row_ids):
            todo = pending.get(row)
            if todo is None:
                continue
            entries = blocks[int(p[index])].scheme.entries
            data = data_rows[index]
            for offset in entries:
                entries[offset] = int(data[offset])
            for offset in todo:
                entries[offset] = int(data[offset])
        return None


class _HammingKernel(_BatchKernel):
    """(72, 64) SEC-DED: batch-encode check words for fault-free rows.

    A row is fast iff its main cells *and* its check cells hold zero
    stuck faults — the stored codewords then equal the encoded data, so
    every word decodes clean.  The check-bit images for a whole segment
    come from one parity-matrix matmul; the side check arrays are adopted
    columnar here (the main arrays live in the shared block store) and
    take the same differential-write/count bookkeeping, minus wear: block
    endurance covers main cells only, exactly like the scalar path.
    """

    def __init__(self, array) -> None:
        self.array = array
        self.store: BlockStore = array.store
        scheme = array.blocks[0].scheme
        self.words = scheme.words
        check_bits = self.words * CHECK_BITS
        count = len(array.blocks)
        self.c_stored = np.empty((count, check_bits), dtype=np.uint8)
        self.c_stuck = np.zeros((count, check_bits), dtype=bool)
        self.c_stuck_value = np.empty((count, check_bits), dtype=np.uint8)
        self.c_write_counts = np.empty((count, check_bits), dtype=np.int64)
        for index, block in enumerate(array.blocks):
            checks = block.scheme._checks
            self.c_stored[index] = checks._stored
            self.c_stuck[index] = checks._stuck
            self.c_stuck_value[index] = checks._stuck_value
            self.c_write_counts[index] = checks._write_counts
            checks._stored = self.c_stored[index]
            checks._stuck = self.c_stuck[index]
            checks._stuck_value = self.c_stuck_value[index]
            checks._write_counts = self.c_write_counts[index]
        self._h7t = _H[:7, :DATA_BITS].T.astype(np.int64)

    def plan(
        self, phys: np.ndarray, payloads: np.ndarray, candidates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        fast = candidates.copy()
        rows = np.flatnonzero(candidates)
        if rows.size:
            p = phys[rows]
            conflict = self.store.stuck[p].any(axis=1) | self.c_stuck[p].any(axis=1)
            fast[rows[conflict]] = False
        return fast, payloads

    def commit(
        self,
        row_ids: range,
        p: np.ndarray,
        data_rows: np.ndarray,
        form_rows: np.ndarray,
    ) -> np.ndarray | None:
        count = p.shape[0]
        data = data_rows.reshape(count, self.words, DATA_BITS).astype(np.int64)
        checks7 = (data @ self._h7t) % 2
        parity = (data.sum(axis=2) + checks7.sum(axis=2)) % 2
        image = np.concatenate([checks7, parity[:, :, None]], axis=2)
        image = image.reshape(count, self.words * CHECK_BITS).astype(np.uint8)
        stored = self.c_stored[p]
        programmed = stored != image
        # no stuck check cells on the fast path, so every differing cell takes
        self.c_stored[p] = image
        counts = self.c_write_counts[p]
        counts += programmed
        self.c_write_counts[p] = counts
        return popcount_rows_u64(pack_rows_u64(programmed))


# ---------------------------------------------------------------------------
# Kernel selection / engine resolution
# ---------------------------------------------------------------------------


def _build_kernel(array):
    block = array.blocks[0]
    if not getattr(block.cells, "differential_writes", True):
        return None
    scheme = block.scheme
    scheme_type = type(scheme)  # exact: subclasses override the write walk
    if scheme_type is AegisScheme:
        return _XorMaskKernel(array, "aegis")
    if scheme_type is SaferScheme:
        return _XorMaskKernel(array, "safer")
    if scheme_type is NoProtectionScheme:
        return _XorMaskKernel(array, "none")
    if scheme_type is EcpScheme and scheme._replacements is None:
        return _EcpKernel(array)
    if scheme_type is HammingScheme:
        return _HammingKernel(array)
    return None


def kernel_for(array):
    """The array's batch kernel, or ``None`` when no kernel covers its
    scheme (sampled/data-dependent schemes: Aegis-rw, SAFER-cache, RDIS,
    fragile-replacement ECP) — memoised per array."""
    cached = array.__dict__.get(_KERNEL_ATTR, _KERNEL_ATTR)
    if cached is not _KERNEL_ATTR:
        return cached
    kernel = _build_kernel(array)
    array.__dict__[_KERNEL_ATTR] = kernel
    return kernel


def resolve_engine(engine: str, array) -> str:
    """Map the public engine switch to the drain path actually taken.

    Mirrors :func:`repro.sim.kernels.resolve_engine` one layer up:
    ``"scalar"`` always runs the per-row pipeline; ``"vector"`` and
    ``"auto"`` take the batched drain when a kernel covers the array's
    scheme and fall back transparently otherwise.
    """
    validate_engine(engine)
    if engine == "scalar":
        return "scalar"
    return "vector" if kernel_for(array) is not None else "scalar"


# ---------------------------------------------------------------------------
# The batched drain driver
# ---------------------------------------------------------------------------


def drain_vector(
    controller,
    addresses: np.ndarray,
    payloads: np.ndarray,
    known: list[dict[int, int]],
) -> tuple[WriteReceipt, int, int]:
    """Service one drained batch with the vector engine.

    Returns ``(merged receipt, writes serviced, writes lost)`` — the same
    aggregate the scalar drain produces.  Rows are processed strictly in
    first-enqueue order as alternating fast segments (batch commit) and
    escalation rows (``controller._service_row``), so both engines leave
    identical state even when an escalation raises mid-drain.
    """
    array = controller.array
    kernel = kernel_for(array)
    batch = int(addresses.shape[0])
    phys = array._map[addresses]
    escalate = phys < 0  # unmapped (first touch) and dead addresses
    np.bitwise_or(escalate, (payloads > 1).any(axis=1), out=escalate)
    if array._switched:
        # policy-switched blocks no longer run the base scheme the batch
        # kernel was built for; their rows take the scalar pipeline
        switched = np.fromiter(
            array._switched, count=len(array._switched), dtype=np.int64
        )
        np.bitwise_or(escalate, np.isin(phys, switched), out=escalate)
    if controller.proactive_migration:
        health = array.health
        for row in range(batch):
            if (
                known[row]
                and not escalate[row]
                and health.state_of(int(phys[row])) is BlockHealth.DEGRADED
            ):
                escalate[row] = True
    fast, forms = kernel.plan(phys, payloads, ~escalate)
    total = WriteReceipt()
    serviced = 0
    lost = 0
    row = 0
    while row < batch:
        if fast[row]:
            stop = row + 1
            while stop < batch and fast[stop]:
                stop += 1
            total.merge(
                _commit_segment(
                    controller, kernel, addresses, phys, payloads, forms, row, stop
                )
            )
            serviced += stop - row
            row = stop
        else:
            receipt = controller._service_row(
                int(addresses[row]), payloads[row], known[row]
            )
            if receipt is None:
                lost += 1
            else:
                total.merge(receipt)
                serviced += 1
            row += 1
    return total, serviced, lost


def _commit_segment(
    controller,
    kernel,
    addresses: np.ndarray,
    phys: np.ndarray,
    payloads: np.ndarray,
    forms: np.ndarray,
    start: int,
    stop: int,
) -> WriteReceipt:
    """Commit one contiguous run of fast rows as a batch; returns the
    segment's merged receipt."""
    array = controller.array
    store: BlockStore = array.store
    p = phys[start:stop]
    form_rows = forms[start:stop]
    data_rows = payloads[start:stop]
    count = stop - start

    # -- differential write (gather → update → scatter) ---------------------
    stored = store.stored[p]
    stuck = store.stuck[p]
    programmed = stored != form_rows
    healthy = programmed & ~stuck
    # branchless masked merge: stored <- form where healthy (boolean-mask
    # assignment is an order of magnitude slower for these shapes)
    stored ^= (stored ^ form_rows) * healthy.view(np.uint8)
    write_counts = store.write_counts[p]
    write_counts += programmed
    cell_writes = programmed.sum(axis=1)

    # -- second pass: the same differential write of the inversion-flipped
    #    forms over the first pass's result (a no-op on one-pass rows) ----
    second = kernel.second_pass(start, stop, p)
    if second is not None:
        second_forms, inversion_writes = second
        programmed = stored != second_forms
        healthy = programmed & ~stuck
        stored ^= (stored ^ second_forms) * healthy.view(np.uint8)
        write_counts += programmed
        cell_writes += programmed.sum(axis=1)
    store.stored[p] = stored
    store.write_counts[p] = write_counts

    # -- wear (matches ProtectedBlock._apply_wear: post-write, freeze at the
    #    just-stored value, int counts compared against float endurance) ----
    worn_out = (write_counts >= store.endurance[p]) & ~stuck
    if worn_out.any():
        stuck |= worn_out
        store.stuck[p] = stuck
        stuck_value = store.stuck_value[p]
        store.stuck_value[p] = np.where(worn_out, stored, stuck_value)
    fault_counts = np.count_nonzero(stuck, axis=1)

    # -- scheme-side commit (ECP entry refresh/alloc, Hamming check words) --
    extra = kernel.commit(range(start, stop), p, data_rows, form_rows)
    if extra is not None:
        cell_writes = cell_writes + extra
    cell_writes_total = int(cell_writes.sum())

    # -- per-row bookkeeping (ops, health, fail cache, stats) ---------------
    # faulty rows get their exact per-row op clock (the degrade event's op
    # field must match the scalar path); healthy rows advance it in bulk
    blocks = array.blocks
    base = array.op_clock
    if fault_counts.any():
        health = array.health
        for index in np.flatnonzero(fault_counts):
            physical = int(p[index])
            array.op_clock = base + int(index) + 1
            health.observe_faults(
                physical, int(fault_counts[index]), op=array.op_clock
            )
            array._record_faults(physical)
    array.op_clock = base + count
    cw_list = cell_writes.tolist()
    if second is None:
        two_pass = inversion_total = 0
        reads_list = [1] * count
        flips_list = [0] * count
    else:
        two_pass = int(np.count_nonzero(inversion_writes))
        inversion_total = int(inversion_writes.sum())
        flips_list = inversion_writes.tolist()
        reads_list = [1 + (flips > 0) for flips in flips_list]
    for index, physical in enumerate(p.tolist()):
        block = blocks[physical]
        stats = block.stats
        stats.writes += 1
        stats.cell_writes += cw_list[index]
        stats.verification_reads += reads_list[index]
        stats.inversion_writes += flips_list[index]
        block.writes_serviced += 1
    # per-row cost attribution: fast rows report the exact cell-write count
    # the scalar receipt would, keeping tenant-bucketed histograms
    # engine-invariant
    cost_hook = controller.cost_hook
    if cost_hook is not None:
        address_list = addresses[start:stop].tolist()
        for index, address in enumerate(address_list):
            cost_hook(int(address), cw_list[index])

    # -- batch telemetry (same series, same values as the per-row path) -----
    telemetry = controller.telemetry
    metrics = telemetry.metrics
    metrics.inc_key(array._k_writes_serviced, count)
    metrics.inc_key(array._k_writes_ok, count)
    metrics.observe_many(
        "stage_cost",
        cell_writes,
        edges=telemetry.service_cost.edges,
        stage="differential_write",
        scheme=array.scheme_name,
    )
    telemetry.service_cost.observe_many(cell_writes)
    # latency in passes: 1 + verification reads + inversion writes
    if second is None:
        telemetry.latency.observe_repeat(2, count)
    else:
        telemetry.latency.observe_many(2 + (inversion_writes > 0) + inversion_writes)
    verification_reads = count + two_pass
    telemetry.count("cell_writes_total", cell_writes_total)
    telemetry.count("verification_reads_total", verification_reads)
    telemetry.count("repartitions_total", 0)
    telemetry.count("inversion_writes_total", inversion_total)
    return WriteReceipt(
        cell_writes=cell_writes_total,
        verification_reads=verification_reads,
        inversion_writes=inversion_total,
    )
