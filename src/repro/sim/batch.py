"""Vectorised batch simulation at the paper's full 8 MB scale.

The per-page engine (:mod:`repro.sim.page_sim`) is general — any checker,
wear amplification, tracing — but runs pages one at a time.  For the
*static* schemes (plain Aegis and ECP) a block's fate depends only on its
fault arrival order and times, which lets the whole population be
simulated as flat numpy arrays:

* a block only ever sees its first ``max_faults`` cell deaths, so instead
  of sampling 512 endurances per block, the first ``k`` order statistics
  of the endurance distribution are sampled directly (uniform spacings
  through the inverse CDF) together with ``k`` distinct fault positions —
  far less than 512 endurances per block, though the ``(blocks, k)``
  float64 times and int64 positions are still ~50 MB each: the default
  131 072-block study (``max_faults=48``) peaks near 300 MB resident;
* Aegis survival is the poisoned-slope condition maintained as the
  collision ROM's per-block ``uint64`` bitsets (B <= 63): at arrival
  ``f``, the collision slopes of the new fault against each earlier fault
  are table lookups vectorised across all blocks;
* page death is the earliest block death time within each page.

Limitations (by design, documented): no inversion-wear amplification and
no data-dependent (sampled) schemes — use the general engine for those.
``tests/test_batch.py`` cross-validates the batch engine against the
per-page engine distributionally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.collision import collision_rom_for
from repro.core.formations import Formation
from repro.errors import ConfigurationError
from repro.pcm.lifetime import PAPER_COV, PAPER_MEAN_LIFETIME
from repro.util.stats import MeanEstimate, mean_ci

_ndtri = None


def _resolve_ndtri():
    """Normal inverse CDF: scipy's exact ``ndtri`` when available, else the
    numpy-only approximation (pyproject declares numpy alone; scipy must
    stay optional)."""
    global _ndtri
    if _ndtri is None:
        try:
            from scipy.special import ndtri as _ndtri  # noqa: F811
        except ImportError:  # pragma: no cover - depends on environment
            from repro.util.stats import ndtri_approx as _ndtri
    return _ndtri


@dataclass(frozen=True)
class BatchResult:
    """Population outcome of a batch run."""

    label: str
    n_pages: int
    blocks_per_page: int
    faults_per_page: MeanEstimate
    page_lifetimes: np.ndarray  # page-write age at death, per page

    @property
    def mean_lifetime(self) -> float:
        return float(self.page_lifetimes.mean())


def _first_death_times(
    n_blocks: int,
    n_bits: int,
    max_faults: int,
    rng: np.random.Generator,
    *,
    mean_lifetime: float,
    cov: float,
    write_probability: float,
) -> np.ndarray:
    """Times (page-write age) of each block's first ``max_faults`` cell
    deaths, shape ``(n_blocks, max_faults)``, ascending along axis 1.

    Uses the classic identity: the first ``k`` of ``n`` uniform order
    statistics are cumulative exponential spacings; mapping through the
    normal inverse CDF yields endurance order statistics directly.
    """
    if max_faults >= n_bits:
        raise ConfigurationError("max_faults must be below the block size")
    gaps = rng.standard_exponential((n_blocks, max_faults))
    # classic identity: U_(k) = (E_1+...+E_k) / (E_1+...+E_{n+1}); only the
    # first max_faults spacings are materialised, the remaining n+1-k sum
    # exactly as one Gamma(n+1-k) draw per block
    partial = np.cumsum(gaps, axis=1)
    remainder = rng.gamma(float(n_bits + 1 - max_faults), 1.0, size=(n_blocks, 1))
    uniforms = partial / (partial[:, -1:] + remainder)
    endurance = mean_lifetime * (1.0 + cov * _resolve_ndtri()(uniforms))
    np.maximum(endurance, 1.0, out=endurance)
    np.sort(endurance, axis=1)  # ndtri is monotone; sort guards edge ties
    return endurance / write_probability


def _fault_positions(
    n_blocks: int, n_bits: int, max_faults: int, rng: np.random.Generator
) -> np.ndarray:
    """Distinct fault offsets per block, shape ``(n_blocks, max_faults)``.

    Floyd-like vectorised rejection: draw with replacement and redraw
    collisions column by column (cheap for ``max_faults << n_bits``).
    """
    positions = rng.integers(0, n_bits, size=(n_blocks, max_faults), dtype=np.int64)
    for column in range(1, max_faults):
        while True:
            clash = (
                positions[:, column : column + 1] == positions[:, :column]
            ).any(axis=1)
            if not clash.any():
                break
            positions[clash, column] = rng.integers(0, n_bits, size=int(clash.sum()))
    return positions


def _aegis_death_index(
    positions: np.ndarray, form: Formation
) -> np.ndarray:
    """Fault index (1-based) at which each block dies under plain Aegis:
    the first arrival that completes the poisoned-slope set."""
    rom = collision_rom_for(form.rect)
    n_blocks, max_faults = positions.shape
    death = np.full(n_blocks, max_faults + 1, dtype=np.int64)
    # the still-living blocks and their poisoned-slope bitsets
    live = np.arange(n_blocks)
    poisoned = np.zeros(n_blocks, dtype=np.uint64)
    for f in range(1, max_faults):
        poisoned |= rom.slope_bits(positions[live, f], positions[live, :f])
        dead = poisoned == rom.all_slope_bits
        death[live[dead]] = f + 1  # this arrival is the fatal fault
        live, poisoned = live[~dead], poisoned[~dead]
    return death


def batch_aegis_study(
    form: Formation,
    *,
    n_pages: int = 2048,
    blocks_per_page: int = 64,
    max_faults: int = 48,
    seed: int = 2013,
    mean_lifetime: float = PAPER_MEAN_LIFETIME,
    cov: float = PAPER_COV,
    write_probability: float = 0.5,
) -> BatchResult:
    """Full-population plain-Aegis page study (e.g. the 8 MB chip)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(99,)))
    n_blocks = n_pages * blocks_per_page
    times = _first_death_times(
        n_blocks, form.n_bits, max_faults, rng,
        mean_lifetime=mean_lifetime, cov=cov, write_probability=write_probability,
    )
    positions = _fault_positions(n_blocks, form.n_bits, max_faults, rng)
    death_index = _aegis_death_index(positions, form)
    return _assemble(
        f"Aegis {form.name}", times, death_index, n_pages, blocks_per_page
    )


@lru_cache(maxsize=None)
def _pext_table(addr_bits: int) -> np.ndarray:
    """``T[P, offset]`` = offset's bits at the positions selected by the
    bitmask ``P``, packed ascending — a vectorised parallel-bit-extract."""
    size = 1 << addr_bits
    table = np.zeros((size, size), dtype=np.int16)
    offsets = np.arange(size, dtype=np.int64)
    for mask in range(size):
        rank = 0
        value = np.zeros(size, dtype=np.int64)
        for bit in range(addr_bits):
            if (mask >> bit) & 1:
                value |= ((offsets >> bit) & 1) << rank
                rank += 1
        table[mask] = value
    return table


def _safer_death_index(
    positions: np.ndarray, n_bits: int, group_count: int
) -> np.ndarray:
    """Fault index (1-based) at which each block dies under grow-only
    SAFER-N: the first arrival whose collision cannot be resolved with the
    vector already full.

    The vector extension picks the lowest unselected address bit at which
    the colliding pair differs (the greedy collision-minimising choice of
    the reference checker measures identically at population level —
    cross-validated in tests)."""
    addr_bits = max(1, (n_bits - 1).bit_length())
    max_positions = max(1, (group_count - 1).bit_length())
    table = _pext_table(addr_bits)
    n_blocks, max_faults = positions.shape
    selected = np.zeros(n_blocks, dtype=np.int64)  # bitmask of chosen positions
    n_selected = np.zeros(n_blocks, dtype=np.int64)
    death = np.full(n_blocks, max_faults + 1, dtype=np.int64)
    alive = np.ones(n_blocks, dtype=bool)
    rows = np.arange(n_blocks)
    for f in range(1, max_faults):
        new = positions[:, f]
        for _ in range(max_positions + 1):
            vals_new = table[selected, new]
            collide_with = np.full(n_blocks, -1, dtype=np.int64)
            for j in range(f):
                unresolved = alive & (collide_with < 0)
                if not unresolved.any():
                    break
                hits = unresolved & (table[selected, positions[:, j]] == vals_new)
                collide_with[hits] = j
            colliding = alive & (collide_with >= 0)
            if not colliding.any():
                break
            dying = colliding & (n_selected >= max_positions)
            death[dying] = f + 1
            alive &= ~dying
            colliding &= alive
            if not colliding.any():
                break
            partner = positions[rows, np.maximum(collide_with, 0)]
            differing = (new ^ partner) & ~selected
            # a colliding pair always differs at an unselected position
            # (identical selected bits are what made the values equal)
            lowest = differing & -differing
            selected[colliding] |= lowest[colliding]
            n_selected[colliding] += 1
    return death


def batch_safer_study(
    group_count: int,
    n_bits: int,
    *,
    n_pages: int = 2048,
    blocks_per_page: int = 64,
    max_faults: int = 40,
    seed: int = 2013,
    mean_lifetime: float = PAPER_MEAN_LIFETIME,
    cov: float = PAPER_COV,
    write_probability: float = 0.5,
) -> BatchResult:
    """Full-population grow-only SAFER-N page study."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(97,)))
    n_blocks = n_pages * blocks_per_page
    times = _first_death_times(
        n_blocks, n_bits, max_faults, rng,
        mean_lifetime=mean_lifetime, cov=cov, write_probability=write_probability,
    )
    positions = _fault_positions(n_blocks, n_bits, max_faults, rng)
    death_index = _safer_death_index(positions, n_bits, group_count)
    return _assemble(
        f"SAFER{group_count}", times, death_index, n_pages, blocks_per_page
    )


def batch_ecp_study(
    pointers: int,
    n_bits: int,
    *,
    n_pages: int = 2048,
    blocks_per_page: int = 64,
    seed: int = 2013,
    mean_lifetime: float = PAPER_MEAN_LIFETIME,
    cov: float = PAPER_COV,
    write_probability: float = 0.5,
) -> BatchResult:
    """Full-population ECP page study (death at fault ``pointers + 1``)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(98,)))
    n_blocks = n_pages * blocks_per_page
    max_faults = pointers + 1
    times = _first_death_times(
        n_blocks, n_bits, max_faults + 1, rng,
        mean_lifetime=mean_lifetime, cov=cov, write_probability=write_probability,
    )
    death_index = np.full(n_blocks, max_faults, dtype=np.int64)
    return _assemble(f"ECP{pointers}", times, death_index, n_pages, blocks_per_page)


def _assemble(
    label: str,
    times: np.ndarray,
    death_index: np.ndarray,
    n_pages: int,
    blocks_per_page: int,
) -> BatchResult:
    max_faults = times.shape[1]
    survivors = int((death_index > max_faults).sum())
    if survivors > max(1, death_index.size // 200):
        raise ConfigurationError(
            f"{survivors} of {death_index.size} blocks outlived the sampled "
            f"window of {max_faults} faults; raise max_faults"
        )
    clipped = np.minimum(death_index, max_faults)
    block_death_time = times[np.arange(times.shape[0]), clipped - 1]
    per_page_blocks = block_death_time.reshape(n_pages, blocks_per_page)
    page_lifetime = per_page_blocks.min(axis=1)
    # faults recovered: every block's deaths strictly before the page's end
    before = (
        times.reshape(n_pages, blocks_per_page, max_faults)
        < page_lifetime[:, None, None]
    ).sum(axis=(1, 2))
    return BatchResult(
        label=label,
        n_pages=n_pages,
        blocks_per_page=blocks_per_page,
        faults_per_page=mean_ci(before.astype(np.float64)),
        page_lifetimes=page_lifetime,
    )
