"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.formations import formation
from repro.core.geometry import rectangle_for


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20131207)  # MICRO-46 opening day


@pytest.fixture
def paper_rect():
    """The paper's Figure 2 example: 32 bits in a 5x7 rectangle."""
    return rectangle_for(32, 7)


@pytest.fixture
def form_9x61():
    return formation(9, 61, 512)


@pytest.fixture
def form_23x23():
    return formation(23, 23, 512)


def random_data(rng: np.random.Generator, n_bits: int) -> np.ndarray:
    return rng.integers(0, 2, size=n_bits, dtype=np.uint8)


def budget_walk(rect, wrong, right, pointers, start=0):
    """The pointer-budget search written out slope by slope from the
    definitions: skip slopes where a W and an R fault share a group, take
    the first whose W groups, or else R groups, fit the budget."""
    for trial in range(rect.b_size):
        slope = (start + trial) % rect.b_size
        w_groups = sorted({rect.group_of(o, slope) for o in wrong})
        r_groups = sorted({rect.group_of(o, slope) for o in right})
        if set(w_groups) & set(r_groups):
            continue
        if len(w_groups) <= pointers:
            return slope, w_groups, False
        if len(r_groups) <= pointers:
            return slope, r_groups, True
    return None
