"""Shared helpers: seeded RNG and a generator of random physical states."""

from __future__ import annotations

import numpy as np
import pytest

from cvteleport import (
    GaussianState,
    beamsplitter,
    impure_squeezed_vacuum,
    loss,
    rotate,
    tensor,
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


def random_physical_state(rng: np.random.Generator, n_modes: int, n_ops: int = 10):
    """Random n-mode Gaussian state: the first n modes of a random network on 2n.

    Each of the 2n modes starts as a squeezed vacuum, pure or impure (its
    anti-squeezed level at or above minus its squeezed level), turned by a
    random angle; ``n_ops`` random rotations, beamsplitters and losses act
    on them, the last n modes are traced out and the mean is drawn at random.
    A mixed n-mode state is the reduced state of a pure 2n-mode one
    (Williamson), and a pure state is beamsplitters and rotations acting on
    squeezed vacua (Bloch-Messiah), so with enough operations every Gaussian
    state is reached.
    """
    total = 2 * n_modes
    modes = []
    for _ in range(total):
        sq_db = rng.uniform(-10.4, 0.0)
        excess_db = rng.uniform(0.0, 6.0) if rng.random() < 0.5 else 0.0
        squeezed = impure_squeezed_vacuum(sq_db, excess_db - sq_db)
        modes.append(rotate(squeezed, 0, rng.uniform(0, np.pi)))
    state = tensor(*modes)
    for _ in range(n_ops):
        op = rng.integers(0, 3)
        mode = int(rng.integers(0, total))
        if op == 0:
            state = rotate(state, mode, rng.uniform(0, 2 * np.pi))
        elif op == 1:
            other = int(rng.integers(0, total - 1))
            other += other >= mode
            state = beamsplitter(state, mode, other, rng.uniform(0, 1))
        else:
            state = loss(state, mode, rng.uniform(0.2, 1.0))
    kept = slice(0, 2 * n_modes)
    return GaussianState(rng.normal(0, 2, 2 * n_modes), state.cov[kept, kept], validate=False)
